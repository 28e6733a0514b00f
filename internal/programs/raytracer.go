package programs

import (
	"fmt"
	"math/rand"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/interp"
)

// RayTracer models Java Grande's raytracer. Unlike the fixed-point Mtrt,
// this kernel uses the VM's float arithmetic (fsqrt-heavy sphere
// intersection and Lambert shading). The image size (-n, rendering an
// n×n image) is the single input value; object count grows mildly with n
// as in the Grande benchmark.
const raytracerSource = `
global n
global nobj
global ox
global oy
global orad
global result

func main() locals y acc
  const 0
  store acc
  const 0
  store y
rows:
  load y
  gload n
  ige
  jnz done
  load acc
  load y
  call renderrow 1
  iadd
  store acc
  iinc y 1
  jmp rows
done:
  load acc
  gstore result
  gload result
  ret
end

func renderrow(y) locals x acc
  const 0
  store acc
  const 0
  store x
cols:
  load x
  gload n
  ige
  jnz done
  load acc
  load x
  i2f
  load y
  i2f
  call shootray 2
  iadd
  store acc
  iinc x 1
  jmp cols
done:
  load acc
  ret
end

; shootray finds the nearest object along the ray and shades the hit.
func shootray(fx, fy) locals i best bestd dx dy dd r
  const -1
  store best
  fconst 1e18
  store bestd
  const 0
  store i
loop:
  load i
  gload nobj
  ige
  jnz done
  gload ox
  load i
  aload
  load fx
  fsub
  store dx
  gload oy
  load i
  aload
  load fy
  fsub
  store dy
  load dx
  load dx
  fmul
  load dy
  load dy
  fmul
  fadd
  fsqrt
  store dd
  gload orad
  load i
  aload
  store r
  load dd
  load r
  fge
  jnz next
  load dd
  load bestd
  fge
  jnz next
  load i
  store best
  load dd
  store bestd
next:
  iinc i 1
  jmp loop
done:
  load best
  const 0
  ilt
  jnz sky
  load best
  load bestd
  call shade 2
  ret
sky:
  load fx
  f2i
  load fy
  f2i
  ixor
  const 63
  iand
  ret
end

; shade computes a Lambert-ish intensity from the hit distance.
func shade(idx, dist) locals r c
  gload orad
  load idx
  aload
  store r
  load r
  load dist
  fsub
  load r
  fdiv
  fconst 255
  fmul
  store c
  load c
  f2i
  const 255
  iand
  const 1
  iadd
  ret
end
`

const raytracerSpec = `
# Java Grande-style raytracer: raytracer [-n SIZE] [-v]
option  {name=-n:--size; type=num; attr=VAL; default=24; has_arg=y}
option  {name=-v:--validate; type=bin; attr=VAL; default=0; has_arg=n}
`

// RayTracer returns the raytracer benchmark.
func RayTracer() *Benchmark {
	return &Benchmark{
		Name:              "raytracer",
		Suite:             "grande",
		Source:            raytracerSource,
		Spec:              raytracerSpec,
		DefaultCorpusSize: 30,
		InputSensitive:    true,
		GenInputs:         genRayTracerInputs,
	}
}

func genRayTracerInputs(rng *rand.Rand, n int) []Input {
	inputs := make([]Input, 0, n)
	for i := 0; i < n; i++ {
		// Bimodal: thumbnail renders and full-size frames.
		var size int
		if rng.Intn(5) < 2 {
			size = 8 + rng.Intn(10)
		} else {
			size = 28 + rng.Intn(44)
		}
		nobj := 4 + size/6
		ox := make([]float64, nobj)
		oy := make([]float64, nobj)
		orad := make([]float64, nobj)
		for j := 0; j < nobj; j++ {
			ox[j] = rng.Float64() * float64(size)
			oy[j] = rng.Float64() * float64(size)
			orad[j] = 2 + rng.Float64()*6
		}
		sz, no := int64(size), int64(nobj)
		xs, ys, rs := ox, oy, orad
		inputs = append(inputs, Input{
			ID:   fmt.Sprintf("raytracer-%03d-n%d", i, size),
			Args: []string{"-n", fmt.Sprint(size)},
			Setup: func(e *interp.Engine) error {
				if err := e.SetGlobal("n", bytecode.Int(sz)); err != nil {
					return err
				}
				if err := e.SetGlobal("nobj", bytecode.Int(no)); err != nil {
					return err
				}
				for _, arr := range []struct {
					name string
					vals []float64
				}{{"ox", xs}, {"oy", ys}, {"orad", rs}} {
					ref, cells, err := e.NewArrayCells(int64(len(arr.vals)))
					if err != nil {
						return err
					}
					for k, v := range arr.vals {
						cells[k] = bytecode.Float(v)
					}
					if err := e.SetGlobal(arr.name, ref); err != nil {
						return err
					}
				}
				return nil
			},
		})
	}
	return inputs
}
