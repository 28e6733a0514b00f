package main

import (
	"fmt"
	"strings"

	"evolvevm/internal/opspec"
)

// Fused pairs. The trace converter's last peephole (fusePairs, regir.go)
// replaces each adjacent pair of register instructions that a rule below
// matches with one fused opcode, so the dispatch loop reaches both with
// one dispatch. The rules, the fused opcodes, the converter's fusePair and
// splitPair (regir_gen.go) and the fused arms (trace_run_gen.go) are all
// generated here from the two components' own arm bodies: a fused arm is
// the first component's body, then the second's, with each component's
// fields bound to the slots of the fused instruction that carry them. An
// arm body leaves only by a trap's return or by an exit's "break body",
// so the joined arm runs exactly as the pair did — a first component that
// exits or traps leaves the second unexecuted — and every exit and trap
// keeps its own rollback record. A fused form's body names its slots, so
// a later rule may take it as a component like any other opcode: the
// peephole fuses to a fixed point, and a pair of fused pairs becomes one.

// pairRule fuses the adjacent instructions first, second into one
// opcode when, for every entry of same, second's register field (the key)
// reads the register in first's field (the value). A component is a
// register opcode or the fused form of an earlier rule.
type pairRule struct {
	first, second string
	same          map[string]string
}

// pairRules are the fused pairs, tried in order: the adjacent pairs that
// dominate the served loops' register instruction stream (loop counter
// increment and bound test, bounds-tested array load, remainder or
// quotient accumulation, run-length compare), the increment that ends
// most loops with the rEnd sentinel after it, the pairs of euler's and
// moldyn's loop bodies that each remove at least 5% of their warm
// dispatches, and then the pairs of fused pairs that search's and
// compress's unrolled loop bodies repeat.
var pairRules = []pairRule{
	{first: "rInc", second: "rxIGE"},
	{first: "rInc", second: "rxIGEi"},
	{first: "rxIGE", second: "rALoad", same: map[string]string{"b": "a"}}, // loads at the compared index
	{first: "rIMODk", second: "rIADD", same: map[string]string{"a": "d"}}, // adds the remainder
	{first: "rIDIVk", second: "rIADD", same: map[string]string{"a": "d"}}, // adds the quotient
	{first: "rIADD", second: "rInc"},
	{first: "rALoad", second: "rxIEQ", same: map[string]string{"a": "d"}}, // compares the loaded value
	{first: "rMove", second: "rInc"},
	{first: "rInc", second: "rMove"},
	{first: "rInc", second: "rEnd"},
	// euler's flux loop: a load at a summed index, the bound n-1, the
	// stored value added into the sum, and the sum's division.
	{first: "rIADD", second: "rALoad", same: map[string]string{"b": "d"}},  // loads at the sum
	{first: "rISUBi", second: "rxIGE", same: map[string]string{"b": "d"}},  // compares with the difference
	{first: "rAStore", second: "rIADD", same: map[string]string{"b": "d"}}, // adds the stored value
	{first: "rIADD", second: "rIDIVk", same: map[string]string{"a": "d"}},  // divides the sum
	// moldyn's force loop: the loaded coordinate's distance, its zero
	// test, and the force's division of a rematerialized constant.
	{first: "rALoad", second: "rISUB", same: map[string]string{"a": "d"}},  // subtracts from the loaded value
	{first: "rISUB", second: "rBrTrue", same: map[string]string{"a": "d"}}, // tests the difference
	{first: "rIADDi", second: "rLoadI"},                                    // then loads the dividend
	{first: "rIDIV", second: "rIADD", same: map[string]string{"b": "d"}},   // adds the quotient
	// search's digit loop: the remainder and then the quotient of one
	// dividend by constants, the quotient sum replacing the dividend.
	{first: "rIMODk_rIADD", second: "rIDIVk_rIADD", same: map[string]string{"d": "d", "a": "a", "b": "a"}},
	// compress's summing loop: the loaded value plus the index, added
	// into the sum before the index's increment.
	{first: "rIADD", second: "rIADD_rInc", same: map[string]string{"b": "d", "c": "b"}},
	// compress's run-length loop: a new run counts and keeps the value
	// its compare loaded.
	{first: "rALoad_rxIEQ", second: "rInc_rMove", same: map[string]string{"a": "c", "b": "d"}},
}

// A fused form places its components' fields in the slots of one
// register instruction (slotExpr): the five registers regSlots, the
// immediate imm, the exit or trap index x, and y, for the second
// component's immediate or index. slotType is the Go type of each slot
// that is not a register.
var (
	regSlots = []string{"d", "a", "b", "c", "e"}
	slotType = map[string]string{"imm": "int32", "y": "int32", "x": "uint16"}
)

// pairForm is one generated fused opcode: its rule, the component arm
// bodies, the slot that carries each component field, and its own arm
// body over those slots.
type pairForm struct {
	pairRule
	name         string
	pBody, qBody string
	p, q         map[string]string // component field → fused slot
	body         string
}

// slotCands lists the slots a field of the second component may take,
// in order of preference: its own, then any free register slot for a
// register, and for an index or immediate an int32 slot (an immediate
// never fits the uint16 x).
func slotCands(fld string) []string {
	if isRegSlot(fld) {
		return append([]string{fld}, regSlots...)
	}
	return []string{fld, "y", "imm"}
}

// pairForms derives every fused opcode from pairRules, in rule order.
// Each component field keeps its own slot when the first component has
// not taken it; otherwise it moves to the first free slot slotCands
// offers. A field of second that same ties to a field of first shares
// that field's slot.
func pairForms(table []opspec.Op) []pairForm {
	bodies := map[string]string{}
	for _, a := range regArms(table) {
		bodies[a.name] = a.body
	}
	var forms []pairForm
	for _, r := range pairRules {
		f := pairForm{pairRule: r, name: r.first + "_" + r.second, pBody: bodies[r.first], qBody: bodies[r.second]}
		if f.pBody == "" || f.qBody == "" {
			fail("pair rule %s: no register opcode or earlier fused form %s or %s", f.name, r.first, r.second)
		}
		taken := map[string]bool{}
		f.p = map[string]string{}
		for _, fld := range usedFields(f.pBody) {
			f.p[fld] = fld
			taken[fld] = true
		}
		f.q = map[string]string{}
		for _, fld := range usedFields(f.qBody) {
			if pf, ok := r.same[fld]; ok {
				if f.p[pf] == "" || !isRegSlot(fld) || !isRegSlot(pf) {
					fail("pair rule %s: %s.%s = %s.%s does not tie two registers", f.name, r.second, fld, r.first, pf)
				}
				f.q[fld] = f.p[pf]
				continue
			}
			for _, s := range slotCands(fld) {
				if !taken[s] {
					f.q[fld], taken[s] = s, true
					break
				}
			}
			if f.q[fld] == "" {
				fail("pair rule %s: no free slot for %s.%s", f.name, r.second, fld)
			}
		}
		for fld := range r.same {
			if _, ok := f.q[fld]; !ok {
				fail("pair rule %s: %s reads no field %s", f.name, r.second, fld)
			}
		}
		f.body = f.join()
		if bodies[f.name] != "" {
			fail("pair rule %s: the name is taken", f.name)
		}
		bodies[f.name] = f.body
		forms = append(forms, f)
	}
	return forms
}

func isRegSlot(s string) bool {
	for _, r := range regSlots {
		if s == r {
			return true
		}
	}
	return false
}

// doc is the fused opcode's one-line comment in the generated const block.
func (f pairForm) doc() string {
	s := f.first + " then " + f.second
	for _, fld := range usedFields(f.qBody) {
		if pf, ok := f.same[fld]; ok {
			s += fmt.Sprintf(", %s.%s = %s.%s", f.second, fld, f.first, pf)
		}
	}
	return s
}

// join joins the two component bodies with their fields bound to the
// fused slots. The first runs in its own block when it declares
// variables, so the second's declarations cannot collide with them.
func (f pairForm) join() string {
	p := bindArm(f.pBody, f.p)
	if strings.Contains(p, ":=") && !strings.HasPrefix(p, "if ") {
		p = "{\n" + p + "\n}"
	}
	return p + "\n" + bindArm(f.qBody, f.q)
}

// convert reads field (or slot) from of instruction v, converted to the
// type of the field (or slot) to when the two differ.
func convert(v, from, to string) string {
	ft, tt := fieldType(from), fieldType(to)
	if ft == tt {
		return v + "." + from
	}
	return tt + "(" + v + "." + from + ")"
}

// fieldType is the Go type of an instruction field or slot.
func fieldType(s string) string {
	if t, ok := slotType[s]; ok {
		return t
	}
	return "uint8"
}

// genPairs emits the fused opcodes' converter half into regir_gen.go:
// fusePair, which the peephole tries on every adjacent pair, and
// splitPair, its inverse.
func genPairs(b *strings.Builder, forms []pairForm) {
	b.WriteString(`
// fusePair returns the fused form of the adjacent instructions p, q when
// a pair rule matches them.
func fusePair(p, q *rins) (rins, bool) {
	switch {
`)
	for _, f := range forms {
		cond := fmt.Sprintf("p.op == %s && q.op == %s", f.first, f.second)
		for _, fld := range usedFields(f.qBody) {
			if pf, ok := f.same[fld]; ok {
				cond += fmt.Sprintf(" && q.%s == p.%s", fld, pf)
			}
		}
		var sets []string
		for _, fld := range usedFields(f.pBody) {
			sets = append(sets, fmt.Sprintf("%s: %s", f.p[fld], convert("p", fld, f.p[fld])))
		}
		for _, fld := range usedFields(f.qBody) {
			if _, ok := f.same[fld]; !ok {
				sets = append(sets, fmt.Sprintf("%s: %s", f.q[fld], convert("q", fld, f.q[fld])))
			}
		}
		fmt.Fprintf(b, "case %s:\nreturn rins{op: %s, %s}, true\n", cond, f.name, strings.Join(sets, ", "))
	}
	b.WriteString(`}
	return rins{}, false
}

// splitPair returns the two instructions fused form f replaced; ok is
// false when f is not a fused form.
func splitPair(f rins) (p, q rins, ok bool) {
	switch f.op {
`)
	// split rebuilds one component, op, from the slots m gives its fields.
	split := func(op, body string, m map[string]string) string {
		sets := []string{"op: " + op}
		for _, fld := range usedFields(body) {
			sets = append(sets, fmt.Sprintf("%s: %s", fld, convert("f", m[fld], fld)))
		}
		return "rins{" + strings.Join(sets, ", ") + "}"
	}
	for _, f := range forms {
		fmt.Fprintf(b, "case %s:\nreturn %s, %s, true\n", f.name, split(f.first, f.pBody, f.p), split(f.second, f.qBody, f.q))
	}
	b.WriteString(`}
	return rins{}, rins{}, false
}
`)
}
