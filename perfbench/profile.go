package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// This file turns runtime/pprof output into per-layer shares. Each
// sample is charged to the layer of its innermost frame that belongs to
// this repository, so runtime work done on a layer's behalf (map
// hashing, allocation, GC assists) counts against that layer. The
// profile is read with a small protobuf decoder, keeping the benchmark
// free of dependencies.

// Layers, named after the repository's modules.
const (
	layerSim      = "sim"
	layerClock    = "clock"
	layerNetsim   = "netsim"
	layerCore     = "core"
	layerRestripe = "restripe"
	layerDisk     = "disk"
	layerViewer   = "viewer"
	layerObs      = "obs"
	layerTiger    = "tiger"
	layerRT       = "rt"
	layerWire     = "wire"
	layerBench    = "bench"   // the benchmark's own code
	layerRuntime  = "runtime" // no repository frame on the stack
	layerGC       = "gc"      // background GC workers
)

// pkgLayers maps repository packages to layers; a package's subpackages
// inherit its layer.
var pkgLayers = []struct{ pkg, layer string }{
	{"tiger/internal/sim", layerSim},
	{"tiger/internal/clock", layerClock},
	{"tiger/internal/netsim", layerNetsim},
	{"tiger/internal/core", layerCore},
	{"tiger/internal/layout", layerCore},
	{"tiger/internal/schedule", layerCore},
	{"tiger/internal/netsched", layerCore},
	{"tiger/internal/spec", layerCore},
	{"tiger/internal/restripe", layerRestripe},
	{"tiger/internal/disk", layerDisk},
	{"tiger/internal/viewer", layerViewer},
	{"tiger/internal/obs", layerObs},
	{"tiger/internal/trace", layerObs},
	{"tiger/internal/metrics", layerObs},
	{"tiger/internal/rt", layerRT},
	{"tiger/internal/wire", layerWire},
	{"tiger/internal/msg", layerWire},
	{"tiger/internal/chaos", layerTiger},
	{"tiger/perfbench", layerBench},
	{"main", layerBench},
	{"tiger", layerTiger},
}

// restripeFiles are the core files that make up the online mover.
var restripeFiles = map[string]bool{"mover.go": true, "restriper.go": true}

// funcPackage returns the import path of a symbol name as pprof prints
// it, e.g. "tiger/internal/core.(*Cub).Start.func1" → "tiger/internal/core".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may themselves contain paths
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// layerOf returns the layer a repository frame belongs to, or "" when
// the frame is outside the repository.
func layerOf(funcName, file string) string {
	pkg := funcPackage(funcName)
	for _, pl := range pkgLayers {
		if pkg == pl.pkg || strings.HasPrefix(pkg, pl.pkg+"/") {
			if pl.layer == layerCore && restripeFiles[path.Base(file)] {
				return layerRestripe
			}
			return pl.layer
		}
	}
	return ""
}

// frame is one function on a sampled stack.
type frame struct {
	Func string
	File string
}

// isMapFrame reports runtime map and hash functions.
func isMapFrame(f string) bool {
	for _, p := range []string{"runtime.map", "runtime.memhash", "runtime.aeshash",
		"runtime.strhash", "runtime.nilinterhash", "runtime.interhash", "runtime.typehash",
		"internal/runtime/maps."} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

func isSyscallFrame(f string) bool {
	pkg := funcPackage(f)
	return pkg == "syscall" || strings.HasSuffix(pkg, "/syscall") || strings.HasPrefix(f, "internal/poll.")
}

func isGCWorker(f string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// classify returns the layer a stack (innermost frame first) is charged
// to, and whether runtime map hashing sits between that layer's frame
// and the leaf.
func classify(stack []frame) (layer string, mapHash bool) {
	for _, f := range stack {
		if l := layerOf(f.Func, f.File); l != "" {
			return l, mapHash
		}
		if isMapFrame(f.Func) {
			mapHash = true
		}
	}
	for _, f := range stack {
		if isGCWorker(f.Func) {
			return layerGC, false
		}
	}
	return layerRuntime, false
}

// layerProfile accumulates bucketed sample values across profiles.
type layerProfile struct {
	Total   int64
	ByLayer map[string]int64
	MapHash map[string]int64 // map/hash runtime frames under a layer
	Syscall int64            // stacks that contain a system call
}

func newLayerProfile() *layerProfile {
	return &layerProfile{ByLayer: map[string]int64{}, MapHash: map[string]int64{}}
}

// add charges one sample of value v.
func (lp *layerProfile) add(stack []frame, v int64) {
	if v == 0 {
		return
	}
	l, mh := classify(stack)
	lp.Total += v
	lp.ByLayer[l] += v
	if mh {
		lp.MapHash[l] += v
	}
	for _, f := range stack {
		if isSyscallFrame(f.Func) {
			lp.Syscall += v
			break
		}
	}
}

// pct returns part as a percentage of the profile total.
func (lp *layerProfile) pct(part int64) float64 {
	if lp.Total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(lp.Total)
}

// addPprof decodes a (possibly gzipped) pprof profile and adds the
// sample values of the sample type named valueType (e.g. "cpu",
// "alloc_objects").
func (lp *layerProfile) addPprof(data []byte, valueType string) error {
	p, err := decodeProfile(data)
	if err != nil {
		return err
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == valueType {
			vi = i
		}
	}
	if vi < 0 {
		return fmt.Errorf("profile has no %q samples", valueType)
	}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		var stack []frame
		for _, lid := range s.locs {
			for _, ln := range p.locs[lid] {
				fn := p.funcs[ln]
				stack = append(stack, frame{Func: p.str(fn.name), File: p.str(fn.file)})
			}
		}
		lp.add(stack, s.values[vi])
	}
	return nil
}

// Minimal decoder for the pprof protobuf schema (profile.proto).

type pprofFunc struct{ name, file int64 }

type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofProfile struct {
	sampleTypes []int64 // string index of each sample type's name
	samples     []pprofSample
	locs        map[uint64][]uint64 // location → function ids, innermost first
	funcs       map[uint64]pprofFunc
	strs        []string
}

func (p *pprofProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

var errProto = errors.New("malformed pprof protobuf")

// pbField is one decoded protobuf field.
type pbField struct {
	num   int
	wire  int
	value uint64 // varint or fixed value
	bytes []byte // length-delimited payload
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			f.value, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			f.value, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// pbVarints returns a repeated integer field's values, packed or not.
func pbVarints(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	if f.wire != 2 {
		return nil, errProto
	}
	var out []uint64
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func decodeProfile(data []byte) (*pprofProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, err
		}
		data = raw
	}
	top, err := pbFields(data)
	if err != nil {
		return nil, err
	}
	p := &pprofProfile{locs: map[uint64][]uint64{}, funcs: map[uint64]pprofFunc{}}
	for _, f := range top {
		switch f.num {
		case 1: // sample_type
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var typ int64
			for _, s := range sub {
				if s.num == 1 {
					typ = int64(s.value)
				}
			}
			p.sampleTypes = append(p.sampleTypes, typ)
		case 2: // sample
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s pprofSample
			for _, sf := range sub {
				vs, err := pbVarints(sf)
				switch sf.num {
				case 1:
					if err != nil {
						return nil, err
					}
					s.locs = append(s.locs, vs...)
				case 2:
					if err != nil {
						return nil, err
					}
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range sub {
				switch lf.num {
				case 1:
					id = lf.value
				case 4: // line
					ls, err := pbFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.value)
						}
					}
				}
			}
			p.locs[id] = fns
		case 5: // function
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fn pprofFunc
			for _, ff := range sub {
				switch ff.num {
				case 1:
					id = ff.value
				case 2:
					fn.name = int64(ff.value)
				case 4:
					fn.file = int64(ff.value)
				}
			}
			p.funcs[id] = fn
		case 6: // string_table
			p.strs = append(p.strs, string(f.bytes))
		}
	}
	return p, nil
}
