package faults

import (
	"errors"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// errCut is the private stop used to end a partial scan; it is mapped to
// an *InjectedError before leaving the wrapper, so a truncated scan is
// always a loud failure, never a quietly short result.
var errCut = errors.New("faults: partial cut")

// Wrap returns ds with fault injection at its read method: each ScanRange
// call draws one decision from p, so a full pass draws one and a block
// scan one per block. Pass bookkeeping is delegated to ds. A nil Point
// returns ds unchanged.
func Wrap(ds dataset.Dataset, p *Point) dataset.Dataset {
	if p == nil {
		return ds
	}
	return &faultyDataset{ds: ds, p: p}
}

type faultyDataset struct {
	ds dataset.Dataset
	p  *Point
}

func (f *faultyDataset) Len() int    { return f.ds.Len() }
func (f *faultyDataset) Dims() int   { return f.ds.Dims() }
func (f *faultyDataset) Passes() int { return f.ds.Passes() }
func (f *faultyDataset) AddPass()    { f.ds.AddPass() }

// ScanRange draws one decision and applies it to the read of
// [start, end).
func (f *faultyDataset) ScanRange(start, end int, fn func(p geom.Point) error) error {
	kind, aux, op := f.p.next()
	switch kind {
	case KindError, KindCancel:
		return f.p.errAt(kind, op)
	case KindDelay:
		time.Sleep(f.p.delay(aux))
		return f.ds.ScanRange(start, end, fn)
	case KindPartial:
		cut := int(frac(aux) * float64(end-start))
		seen := 0
		err := f.ds.ScanRange(start, end, func(pt geom.Point) error {
			if seen >= cut {
				return errCut
			}
			seen++
			return fn(pt)
		})
		if errors.Is(err, errCut) {
			return f.p.errAt(KindPartial, op)
		}
		return err
	default:
		return f.ds.ScanRange(start, end, fn)
	}
}
