package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// paramBlob is the on-disk form of a parameter set.
type paramBlob struct {
	Shapes [][2]int
	Data   [][]float64
}

// SaveParams serialises parameter values (not optimiser state) with gob.
func SaveParams(w io.Writer, params []*Tensor) error {
	return EncodeParams(gob.NewEncoder(w), params)
}

// EncodeParams writes the parameter blob through an existing encoder, so
// callers embedding parameters in a larger gob stream (the model-bundle
// format) share one encoder: a gob decoder buffers ahead of what it
// decodes, which makes mixing independent encoders on one stream
// unreadable.
func EncodeParams(enc *gob.Encoder, params []*Tensor) error {
	blob := paramBlob{}
	for _, p := range params {
		blob.Shapes = append(blob.Shapes, [2]int{p.R, p.C})
		d := make([]float64, len(p.Data))
		copy(d, p.Data)
		blob.Data = append(blob.Data, d)
	}
	return enc.Encode(blob)
}

// LoadParams restores values into an architecture-compatible parameter
// set.
func LoadParams(r io.Reader, params []*Tensor) error {
	return DecodeParams(gob.NewDecoder(r), params)
}

// DecodeParams is LoadParams over an existing decoder (see EncodeParams).
// Bundles reach this from user-supplied files (-model-in), so every
// dimension and value (the kernels assume finite weights) is validated
// before any copy: a malformed blob returns an error rather than
// panicking or half-loading a model.
func DecodeParams(dec *gob.Decoder, params []*Tensor) error {
	var blob paramBlob
	if err := dec.Decode(&blob); err != nil {
		return err
	}
	if len(blob.Data) != len(params) || len(blob.Shapes) != len(params) {
		return fmt.Errorf("nn: parameter count mismatch: blob %d shapes / %d tensors vs model %d",
			len(blob.Shapes), len(blob.Data), len(params))
	}
	for i, p := range params {
		if blob.Shapes[i] != [2]int{p.R, p.C} {
			return fmt.Errorf("nn: parameter %d shape mismatch: blob %v vs model %dx%d", i, blob.Shapes[i], p.R, p.C)
		}
		if len(blob.Data[i]) != p.R*p.C {
			return fmt.Errorf("nn: parameter %d has %d values, shape %dx%d needs %d",
				i, len(blob.Data[i]), p.R, p.C, p.R*p.C)
		}
		for j, v := range blob.Data[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: parameter %d (%dx%d) value %d is %v; weights must be finite", i, p.R, p.C, j, v)
			}
		}
	}
	// Validate everything before mutating anything, so a bad bundle
	// cannot leave the model half-loaded.
	for i, p := range params {
		copy(p.Data, blob.Data[i])
	}
	return nil
}

// CopyParams copies values from src into dst (same architecture).
func CopyParams(dst, src []*Tensor) {
	if len(dst) != len(src) {
		panic("nn: CopyParams count mismatch")
	}
	for i := range dst {
		if len(dst[i].Data) != len(src[i].Data) {
			panic("nn: CopyParams shape mismatch")
		}
		copy(dst[i].Data, src[i].Data)
	}
}

// MomentumUpdate applies the paper's MoA Siamese update:
// siamese = m*siamese + (1-m)*target, elementwise over all parameters.
func MomentumUpdate(siamese, target []*Tensor, m float64) {
	if len(siamese) != len(target) {
		panic("nn: MomentumUpdate count mismatch")
	}
	for i := range siamese {
		s, t := siamese[i].Data, target[i].Data
		if len(s) != len(t) {
			panic("nn: MomentumUpdate shape mismatch")
		}
		for j := range s {
			s[j] = m*s[j] + (1-m)*t[j]
		}
	}
}
