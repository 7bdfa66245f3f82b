package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// shareLayers are the packages whose share of host time the traced run
// reports; runtime covers the Go runtime (GC, scheduler, maps).
var shareLayers = []string{"cpu", "mem", "interconnect", "filter", "core", "vet", "harness", "simd", "runtime"}

// hostShares reads a gzipped pprof CPU profile and returns each layer's
// share of the sampled host time, attributing every sample to the package
// of its innermost frame (flat time).
func hostShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	byLayer := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		byLayer[layerOf(p.funcName(s.locs[0]))] += v
	}
	shares := make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		shares[l] = div(byLayer[l], total)
	}
	return shares, nil
}

// layerOf maps a symbol such as "repro/internal/cpu.(*Core).issueStage"
// to its layer ("cpu"); runtime and internal/runtime symbols map to
// "runtime", everything else to its import path. Type arguments of
// generic symbols ("(*Bus[go.shape...]).Tick") are cut off first, since
// they carry import paths of their own.
func layerOf(sym string) string {
	pkg, _, _ := strings.Cut(sym, "[")
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return pkg
}

// profile holds the parts of profile.proto that flat attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// funcName is the innermost function at a location ("" if unknown).
func (p *profile) funcName(loc uint64) string {
	if fns := p.locFuncs[loc]; len(fns) > 0 {
		return p.strings[p.funcNames[fns[0]]]
	}
	return ""
}

// parseProfile decodes the protobuf wire format of a pprof profile.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcNames: make(map[uint64]int64)}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return eachVarint(v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, n := range p.funcNames {
		if n < 0 || int(n) >= len(p.strings) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	return p, nil
}

// eachField walks one protobuf message, handing fn each field's number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint handles a repeated varint field in either packed (sub) or
// unpacked (v) form.
func eachVarint(v uint64, sub []byte, fn func(uint64)) error {
	if sub == nil {
		fn(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		sub = sub[n:]
	}
	return nil
}
