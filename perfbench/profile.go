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

// profile is the part of a pprof profile (profile.proto, as written by
// runtime/pprof) the per-layer attribution needs: each sample's stack as
// function names, leaf first, inlined frames included, and its values.
// The decoder is hand-written over the protobuf wire format because the
// module takes no dependencies.
type profile struct {
	sampleTypes []string // "cpu", "alloc_space", ...
	samples     []sample
}

type sample struct {
	stack  []string
	values []int64
}

// value sums, over the samples whose stack satisfies under, the value of
// the named sample type. Each sample counts once however many of its
// frames match, so recursion does not double-count (a cumulative value,
// in pprof's terms).
func (p *profile) value(sampleType string, under func(stack []string) bool) (int64, error) {
	col := -1
	for i, t := range p.sampleTypes {
		if t == sampleType {
			col = i
		}
	}
	if col < 0 {
		return 0, fmt.Errorf("profile has no %q sample type (has %v)", sampleType, p.sampleTypes)
	}
	var sum int64
	for _, s := range p.samples {
		if col < len(s.values) && under(s.stack) {
			sum += s.values[col]
		}
	}
	return sum, nil
}

// anyFunc matches a stack containing any of the named functions.
func anyFunc(names ...string) func([]string) bool {
	return func(stack []string) bool {
		for _, f := range stack {
			for _, n := range names {
				if f == n {
					return true
				}
			}
		}
		return false
	}
}

// anyPrefix matches a stack with a frame starting with any of prefixes.
func anyPrefix(prefixes ...string) func([]string) bool {
	return func(stack []string) bool {
		for _, f := range stack {
			for _, p := range prefixes {
				if strings.HasPrefix(f, p) {
					return true
				}
			}
		}
		return false
	}
}

// calleeOf matches a stack where a frame starting with prefix runs below
// (was called, directly or not, by) the function named entry.
func calleeOf(entry, prefix string) func([]string) bool {
	return func(stack []string) bool {
		for i, f := range stack {
			if f != entry {
				continue
			}
			for _, g := range stack[:i] {
				if strings.HasPrefix(g, prefix) {
					return true
				}
			}
		}
		return false
	}
}

// genericFunc matches a generic function itself, whatever its type
// arguments, but none of its closures: "pkg.Stage[...]" and not
// "pkg.Stage[...].func1" (a stage's worker goroutine).
func genericFunc(name string) func(string) bool {
	return func(f string) bool {
		return strings.HasPrefix(f, name+"[") && strings.HasSuffix(f, "]")
	}
}

// parseProfile decodes a (possibly gzip-compressed) profile.proto.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeIdx   []int64
		raws      []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames = map[uint64]int64{}    // function id → string index
	)
	err := fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return repeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for _, r := range raws {
		s := sample{values: r.values}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				name, err := str(funcNames[fn])
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, name)
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling fn for each field with its
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped: profile.proto uses none that matter.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field given either unpacked (one
// value in v, data nil) or packed (data holds the varints).
func repeated(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		data = data[n:]
	}
	return nil
}
