package vectors_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mathx"
	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/vectors"
	"repro/internal/webaudio"
)

// offsetStack is one audio stack the one-pass differential renders on.
type offsetStack struct {
	name   string
	traits webaudio.Traits
	rate   float64
}

// offsetStacks samples 24 audio stacks: modern and 2016-era population
// devices (their own kernels, compressor variants and sample rates), plus
// stacks with perturbed math kernels and farbled read points.
func offsetStacks() []offsetStack {
	var out []offsetStack
	add := func(devs []*platform.Device) {
		for _, d := range devs {
			out = append(out, offsetStack{d.AudioStackKey(), d.AudioTraits(), d.SampleRate})
		}
	}
	add(population.Sample(population.Config{Seed: 20220325, N: 12}))
	add(population.Sample(population.Config{Seed: 2016, N: 6, Era: "2016", IDPrefix: "v"}))
	for i, eps := range []float64{3e-9, 7e-7, 2e-5} {
		tr := webaudio.DefaultTraits()
		tr.Kernel = mathx.Perturbed(mathx.Libm, fmt.Sprintf("perturbed-%d", i), eps)
		if i == 1 {
			tr.FFTKernel = mathx.Perturbed(mathx.Fdlib, "perturbed-fft", eps)
		}
		out = append(out, offsetStack{tr.Kernel.Name(), tr, 44100})
	}
	farbled := population.Sample(population.Config{Seed: 7, N: 3, IDPrefix: "b"})
	for i, d := range farbled {
		tr := d.AudioTraits()
		tr.Farble = &webaudio.FarbleConfig{Seed: uint64(1000 + i), Epsilon: 1e-4}
		out = append(out, offsetStack{"farbled/" + d.AudioStackKey(), tr, d.SampleRate})
	}
	return out
}

// TestRunOffsetsMatchesFreshRenders is the gate on the one-pass render:
// for every paper vector, on 24 stacks, under both DSP engines, each
// fingerprint a RunOffsets pass captures — Hash and Sum — must equal a
// fresh single-offset Run at that offset. Every stack renders a random
// ascending multi-offset subset; the single-offset sets {0} and {max}
// rotate over the stacks, and the first stack of each era also renders
// the full 0…MaxStates−1 range. (Fresh renders dominate the cost, which is
// why the expensive sets rotate rather than repeat on every stack.)
func TestRunOffsetsMatchesFreshRenders(t *testing.T) {
	stacks := offsetStacks()
	if len(stacks) < 24 {
		t.Fatalf("sampled %d stacks, want ≥24", len(stacks))
	}
	jitter := platform.DefaultJitter()
	for _, engine := range []webaudio.Engine{webaudio.EngineBlock, webaudio.EngineReference} {
		for _, id := range vectors.All {
			t.Run(fmt.Sprintf("%v/%v", engine, id), func(t *testing.T) {
				t.Parallel()
				states := jitter.MaxStates[id]
				if id == vectors.DC {
					states = 4 // DC ignores offsets: a pass renders once for all of them
				}
				rng := rand.New(rand.NewSource(int64(id)*31 + int64(engine)))
				for si, st := range stacks {
					r := vectors.NewRunner(st.traits, st.rate)
					r.SetEngine(engine)
					sets := [][]int{randomAscending(rng, states, 2+rng.Intn(3))}
					switch si % 3 {
					case 0:
						sets = append(sets, []int{0})
					case 1:
						sets = append(sets, []int{states - 1})
					}
					if si == 0 || si == 12 { // first modern and first 2016-era stack
						full := make([]int, states)
						for i := range full {
							full[i] = i
						}
						sets = append(sets, full)
					}
					fresh := map[int]vectors.Fingerprint{}
					for _, offs := range sets {
						got, err := r.RunOffsets(id, offs)
						if err != nil {
							t.Fatalf("%s offsets %v: %v", st.name, offs, err)
						}
						for i, off := range offs {
							want, ok := fresh[off]
							if !ok {
								if want, err = r.Run(id, off); err != nil {
									t.Fatalf("%s offset %d: %v", st.name, off, err)
								}
								fresh[off] = want
							}
							if got[i] != want {
								t.Fatalf("%s pass %v at offset %d: got (%s, %v), fresh render (%s, %v)",
									st.name, offs, off, got[i].Hash, got[i].Sum, want.Hash, want.Sum)
							}
						}
					}
				}
			})
		}
	}
}

// randomAscending draws k distinct offsets from [0, n) in ascending order.
func randomAscending(rng *rand.Rand, n, k int) []int {
	offs := rng.Perm(n)[:min(k, n)]
	slices.Sort(offs)
	return offs
}

// TestRunOffsetsRejectsBadOffsets: offsets must be non-negative and
// strictly ascending, and an unknown vector is refused.
func TestRunOffsetsRejectsBadOffsets(t *testing.T) {
	r := vectors.NewRunner(webaudio.DefaultTraits(), 0)
	for _, offs := range [][]int{{-1}, {0, 0}, {3, 2}, {0, 2, 1}} {
		if _, err := r.RunOffsets(vectors.Hybrid, offs); err == nil {
			t.Errorf("RunOffsets(%v) accepted", offs)
		}
	}
	if _, err := r.RunOffsets(vectors.BiquadSweep, []int{0}); err == nil {
		t.Error("RunOffsets accepted an extension vector")
	}
	if fps, err := r.RunOffsets(vectors.FFT, nil); err != nil || len(fps) != 0 {
		t.Errorf("empty offsets = %v, %v", fps, err)
	}
}
