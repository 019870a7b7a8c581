package engine

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteSeries encodes an epoch time series as one JSON array, one
// sample per element, in epoch order. The encoding is deterministic:
// equal series produce equal bytes.
func WriteSeries(w io.Writer, samples []EpochSample) error {
	enc := json.NewEncoder(w)
	return enc.Encode(samples)
}

// ReadSeries decodes a series written by WriteSeries and validates the
// epoch-determinism contract: indexes are consecutive from zero and end
// ticks strictly increase. An empty bank_damage array decodes as no
// vector, the form WriteSeries encodes it in.
func ReadSeries(r io.Reader) ([]EpochSample, error) {
	var samples []EpochSample
	if err := json.NewDecoder(r).Decode(&samples); err != nil {
		return nil, fmt.Errorf("engine: decode series: %w", err)
	}
	for i, s := range samples {
		if len(s.BankDamage) == 0 {
			samples[i].BankDamage = nil
		}
		if s.Epoch != i {
			return nil, fmt.Errorf("engine: sample %d carries epoch index %d", i, s.Epoch)
		}
		if i > 0 && s.End <= samples[i-1].End {
			return nil, fmt.Errorf("engine: epoch %d end tick %d not after %d", i, s.End, samples[i-1].End)
		}
	}
	return samples, nil
}
