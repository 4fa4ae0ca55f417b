package fleet

import "fmt"

// Wave is one contiguous index range [Lo, Hi) of a campaign's staged
// rollout. Waves partition the population in index order (canary first,
// full-fleet last); because every per-vehicle decision in the drive loop
// keys on the absolute vehicle index, driving the same population as one
// wave or as many is behaviourally identical — wave boundaries change
// *when* a vehicle is driven, never *what* it does.
type Wave struct {
	Lo, Hi int
}

// Size returns the number of vehicles in the wave.
func (w Wave) Size() int { return w.Hi - w.Lo }

// String renders the wave as its half-open range.
func (w Wave) String() string { return fmt.Sprintf("[%d,%d)", w.Lo, w.Hi) }

// StageWaves splits a population of n into a staged rollout plan:
// a canary wave, then rings that grow by the given factor, then the
// remainder as the full wave. canary and factor are clamped to sane
// minimums (1 vehicle, 2x). StageWaves(1000, 10, 4) → [0,10) [10,50)
// [50,210) [210,850) [850,1000).
func StageWaves(n, canary, factor int) []Wave {
	if n <= 0 {
		return nil
	}
	if canary < 1 {
		canary = 1
	}
	if factor < 2 {
		factor = 2
	}
	var waves []Wave
	lo, size := 0, canary
	for lo < n {
		hi := lo + size
		if hi > n {
			hi = n
		}
		waves = append(waves, Wave{Lo: lo, Hi: hi})
		lo = hi
		size *= factor
	}
	return waves
}
