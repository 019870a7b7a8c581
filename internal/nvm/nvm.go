// Package nvm models the resistive-memory (ReRAM) device: the write
// latency/endurance trade-off of §II (Equation 2), the write-pulse modes
// used by the memory controller, and the nvsim-derived energy model of
// §VI-F (Tables V and VI).
//
// The paper's baseline device is a memory-grade ReRAM with a 150 ns
// normal write pulse and 5·10⁶ normal-write endurance; slowing the pulse
// by a factor N multiplies endurance by N^ExpoFactor with ExpoFactor in
// [1, 3] and a representative value of 2.0.
package nvm

import (
	"fmt"
	"math"

	"mellow/internal/sim"
)

// Baseline device constants from Table II.
const (
	// BaseWriteLatencyNS is the normal (1.0×) write-pulse time t_WP.
	BaseWriteLatencyNS = 150
	// BaseEndurance is the cell endurance, in writes, at the normal pulse.
	BaseEndurance = 5e6
	// DefaultExpoFactor is the representative ReRAM latency/endurance
	// exponent (quadratic trade-off).
	DefaultExpoFactor = 2.0
	// SlowPowerRatio is the dissipated power of a 3× slow write relative
	// to a normal write (§VI-F): lower voltage, exponentially slower
	// ionic drift.
	SlowPowerRatio = 0.767
)

// WriteMode identifies a write-pulse speed. The paper's adaptive schemes
// use exactly two (Normal and Slow3x); the motivation and static-policy
// experiments additionally use 1.5× and 2× pulses.
type WriteMode uint8

const (
	// WriteNormal is the 1.0× (150 ns) pulse.
	WriteNormal WriteMode = iota
	// WriteSlow15 is the 1.5× (225 ns) pulse.
	WriteSlow15
	// WriteSlow20 is the 2.0× (300 ns) pulse.
	WriteSlow20
	// WriteSlow30 is the 3.0× (450 ns) pulse — the default "slow write".
	WriteSlow30
	numWriteModes
)

// Multiplier returns the latency multiplier N for the mode.
func (m WriteMode) Multiplier() float64 {
	switch m {
	case WriteNormal:
		return 1.0
	case WriteSlow15:
		return 1.5
	case WriteSlow20:
		return 2.0
	case WriteSlow30:
		return 3.0
	default:
		panic(fmt.Sprintf("nvm: invalid write mode %d", m))
	}
}

// String returns the conventional name used in the paper's tables.
func (m WriteMode) String() string {
	switch m {
	case WriteNormal:
		return "normal"
	case WriteSlow15:
		return "slow1.5x"
	case WriteSlow20:
		return "slow2.0x"
	case WriteSlow30:
		return "slow3.0x"
	default:
		return fmt.Sprintf("WriteMode(%d)", int(m))
	}
}

// IsSlow reports whether the mode is any slow pulse.
func (m WriteMode) IsSlow() bool { return m != WriteNormal }

// ModeForMultiplier returns the WriteMode for a latency multiplier.
func ModeForMultiplier(n float64) (WriteMode, error) {
	switch n {
	case 1.0:
		return WriteNormal, nil
	case 1.5:
		return WriteSlow15, nil
	case 2.0:
		return WriteSlow20, nil
	case 3.0:
		return WriteSlow30, nil
	}
	return WriteNormal, fmt.Errorf("nvm: no write mode with multiplier %v", n)
}

// Device captures the per-device latency/endurance model.
type Device struct {
	// BaseLatency is the normal write-pulse time.
	BaseLatency sim.Tick
	// BaseEndurance is endurance, in writes, at the normal pulse.
	BaseEndurance float64
	// ExpoFactor is the exponent of Equation 2.
	ExpoFactor float64
}

// DefaultDevice returns the paper's baseline ReRAM device.
func DefaultDevice() Device {
	return Device{
		BaseLatency:   sim.NS(BaseWriteLatencyNS),
		BaseEndurance: BaseEndurance,
		ExpoFactor:    DefaultExpoFactor,
	}
}

// Technology corners. §II notes that resistive technologies span write
// latencies from nanoseconds [28] to milliseconds [29] and endurance
// from hundreds [30] to 10¹² [31]; these presets mark useful points for
// sensitivity studies beyond the paper's baseline.

// PCMDevice returns a phase-change-memory-like corner: slower writes,
// higher endurance, and a weaker (sub-quadratic) latency/endurance
// trade-off (field-induced nucleation, [11][12]).
func PCMDevice() Device {
	return Device{
		BaseLatency:   sim.NS(300),
		BaseEndurance: 1e8,
		ExpoFactor:    1.5,
	}
}

// Presets lists the named technology corners with the paper baseline
// first. Besides PCM, they are a Ta₂O₅-bilayer-like ReRAM [31] (fast
// writes with very high endurance, where wear limiting matters little)
// and a storage-class ReRAM with scarce endurance, where Mellow Writes
// is most valuable.
func Presets() []struct {
	Name   string
	Device Device
} {
	return []struct {
		Name   string
		Device Device
	}{
		{"ReRAM (paper baseline)", DefaultDevice()},
		{"PCM-like", PCMDevice()},
		{"high-endurance ReRAM", Device{BaseLatency: sim.NS(50), BaseEndurance: 1e10, ExpoFactor: 2.0}},
		{"low-endurance ReRAM", Device{BaseLatency: sim.NS(150), BaseEndurance: 1e6, ExpoFactor: 2.5}},
	}
}

// WriteLatency returns the pulse duration t_WP for the mode.
func (d Device) WriteLatency(m WriteMode) sim.Tick {
	return sim.Tick(float64(d.BaseLatency) * m.Multiplier())
}

// Endurance returns the cell endurance, in writes, for the mode:
// Equation 2, Endurance ≈ (t_WP/t_0)^ExpoFactor, normalised so that the
// normal pulse yields BaseEndurance.
func (d Device) Endurance(m WriteMode) float64 {
	return d.EnduranceAt(m.Multiplier())
}

// EnduranceAt returns endurance for an arbitrary latency multiplier N.
func (d Device) EnduranceAt(n float64) float64 {
	if n <= 0 {
		panic("nvm: non-positive latency multiplier")
	}
	return d.BaseEndurance * math.Pow(n, d.ExpoFactor)
}

// Damage returns the wear contributed by one write in the given mode, in
// normal-write equivalents: a write consumes 1/Endurance(mode) of a cell,
// so relative to a normal write it contributes N^-ExpoFactor.
func (d Device) Damage(m WriteMode) float64 {
	return d.BaseEndurance / d.Endurance(m)
}
