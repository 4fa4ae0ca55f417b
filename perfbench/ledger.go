package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ledgerModules are the internal packages the four workloads execute;
// each gets a <module>.cpu_share metric. A sample whose innermost
// autosec/internal frame belongs to a package outside this list counts
// as unattributed (and is named in the summary), so the shares always
// sum to the traced total.
var ledgerModules = []string{
	"audit", "campaign", "can", "core", "ecu", "ethernet", "fleet", "gateway",
	"ids", "ieee1609", "keyless", "netif", "obs", "ota", "policy", "sensors",
	"she", "sim", "v2x", "workload", "zonal",
}

const internalPrefix = "autosec/internal/"

// ledger attributes CPU-profile samples to modules: each sample goes to
// its innermost autosec/internal/<pkg> frame; a sample with no such
// frame goes to runtime when every frame is the Go runtime's, and to
// unattributed otherwise (the benchmark's own code, and the standard
// library called from it).
type ledger struct {
	byModule map[string]int64 // CPU ns
	total    int64
	samples  int64
	// unlisted counts CPU ns in internal packages outside ledgerModules.
	unlisted map[string]int64
}

func newLedger() *ledger {
	return &ledger{byModule: map[string]int64{}, unlisted: map[string]int64{}}
}

// add folds one gzipped pprof CPU profile into the ledger.
func (l *ledger) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	listed := map[string]bool{}
	for _, m := range ledgerModules {
		listed[m] = true
	}
	for _, s := range p.samples {
		w := s.value
		mod := p.attribute(s.locs)
		if strings.HasPrefix(mod, internalPrefix) {
			pkg := strings.TrimPrefix(mod, internalPrefix)
			if listed[pkg] {
				mod = pkg
			} else {
				l.unlisted[pkg] += w
				mod = "unattributed"
			}
		}
		l.byModule[mod] += w
		l.total += w
		l.samples += s.count
	}
	return nil
}

// shares returns <module>.cpu_share for every listed module plus runtime
// and unattributed, in percent of the traced total.
func (l *ledger) shares() map[string]float64 {
	out := map[string]float64{}
	for _, m := range append(append([]string(nil), ledgerModules...), "runtime", "unattributed") {
		v := 0.0
		if l.total > 0 {
			v = 100 * float64(l.byModule[m]) / float64(l.total)
		}
		out[m+".cpu_share"] = v
	}
	return out
}

func (l *ledger) summary() []string {
	type kv struct {
		k string
		v int64
	}
	var list []kv
	var sum int64
	for k, v := range l.byModule {
		list = append(list, kv{k, v})
		sum += v
	}
	sort.Slice(list, func(i, j int) bool { return list[i].v > list[j].v })
	out := []string{fmt.Sprintf("cpu ledger (traced rounds, %.3f s of samples; shares sum to %.1f%%):",
		float64(l.total)/1e9, 100*float64(sum)/float64(max(l.total, 1)))}
	for _, e := range list {
		out = append(out, fmt.Sprintf("  %-14s %8.3f ms %6.2f%%", e.k, float64(e.v)/1e6, 100*float64(e.v)/float64(max(l.total, 1))))
	}
	for k, v := range l.unlisted {
		out = append(out, fmt.Sprintf("  (unattributed includes internal/%s: %.3f ms)", k, float64(v)/1e6))
	}
	return out
}

// profile is the part of a pprof protobuf the ledger needs.
type profile struct {
	samples []profSample
	// locFuncs maps a location id to its function names, innermost
	// (inlined) first.
	locFuncs map[uint64][]string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64    // samples (first sample value)
	value int64    // CPU ns (last sample value)
}

// attribute returns internalPrefix+pkg for the innermost internal frame,
// "runtime" for runtime-only stacks, and "unattributed" otherwise.
func (p *profile) attribute(locs []uint64) string {
	runtimeOnly := true
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] {
			if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
				if i := strings.IndexAny(rest, "./"); i >= 0 {
					rest = rest[:i]
				}
				return internalPrefix + rest
			}
			if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "internal/runtime/") && !strings.HasPrefix(fn, "runtime/") {
				runtimeOnly = false
			}
		}
	}
	if runtimeOnly {
		return "runtime"
	}
	return "unattributed"
}

// parseProfile decodes the profile.proto fields the ledger uses:
// Profile.sample(2), Profile.location(4), Profile.function(5) and
// Profile.string_table(6).
func parseProfile(b []byte) (*profile, error) {
	var (
		strs     []string
		samples  []profSample
		locLines = map[uint64][]uint64{} // location -> function ids
		funcName = map[uint64]int64{}    // function id -> string index
	)
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			var vals []uint64
			if err := eachField(data, func(num, wire int, v uint64, d []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, d)
				case 2:
					vals = appendVarints(vals, wire, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count, s.value = int64(vals[0]), int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(data, func(num, wire int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(d, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: map[uint64][]string{}}
	for id, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			if i := funcName[f]; i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

var errProto = errors.New("malformed profile protobuf")

// eachField walks the top-level fields of one protobuf message. For
// varint fields v holds the value; for length-delimited fields data
// holds the bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated integer field in either encoding:
// one unpacked varint, or a packed run.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
