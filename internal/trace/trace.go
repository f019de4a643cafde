// Package trace defines the application trace model consumed by the
// simulator. It plays the role of TaskSim's application traces: for every
// task instance it records which task type the instance belongs to, its
// dependencies on other data, and a generative description of its dynamic
// instruction stream.
//
// Instead of storing every instruction (the paper's traces are produced by
// instrumented native runs, which we do not have), an instance carries a
// list of Segments. A Segment describes a homogeneous run of instructions
// by its length, memory intensity, access pattern, instruction-level
// parallelism and working-set footprint. The detailed CPU model expands a
// segment deterministically from the instance seed, so two simulations of
// the same trace are bit-identical while different instances of a type can
// differ (input dependence), exactly the property the paper's evaluation
// relies on for dedup, freqmine and sparse-matrix-vector-multiplication.
//
// Programs exist only in memory. The benchmark registry and the scenario
// generator rebuild one from its (name, scale, seed), so there is no trace
// file format to write or read.
package trace

import (
	"errors"
	"fmt"
)

// TypeID identifies a task type within a Program. All instances created
// from the same task declaration share a TypeID (paper §II-A).
type TypeID int32

// Pattern selects how a segment generates memory addresses.
type Pattern uint8

// Supported access patterns.
const (
	// PatStride walks the footprint with a fixed stride (2d-convolution,
	// 3d-stencil, vector-operation).
	PatStride Pattern = iota
	// PatRandom draws uniform addresses from the footprint (canneal).
	PatRandom
	// PatGaussian draws addresses clustered around a hot spot, modelling
	// high reuse (dense-matrix-multiplication working sets).
	PatGaussian
	// PatChase serialises loads: each load depends on the previous one
	// (pointer chasing, n-body neighbour lists).
	PatChase
	numPatterns
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case PatStride:
		return "stride"
	case PatRandom:
		return "random"
	case PatGaussian:
		return "gaussian"
	case PatChase:
		return "chase"
	default:
		return fmt.Sprintf("pattern(%d)", uint8(p))
	}
}

// Valid reports whether p is a known pattern.
func (p Pattern) Valid() bool { return p < numPatterns }

// Segment describes a homogeneous run of instructions inside a task
// instance. The CPU model expands it into a concrete instruction stream.
type Segment struct {
	// N is the number of dynamic instructions in the segment.
	N int64
	// MemRatio is the fraction of instructions that access memory.
	MemRatio float64
	// StoreFrac is the fraction of memory accesses that are stores.
	StoreFrac float64
	// Pat selects the address pattern for memory accesses.
	Pat Pattern
	// Base is the first byte of the segment's data region.
	Base uint64
	// Footprint is the size in bytes of the region touched.
	Footprint uint64
	// Stride is the access stride in bytes for PatStride.
	Stride int64
	// Atomic marks memory accesses as read-modify-write operations on
	// shared data (histogram bins). Atomics hit shared lines and trigger
	// coherence traffic between threads.
	Atomic bool
	// DepDist is the mean register-dependency distance in instructions.
	// Small values serialise execution (low ILP); large values let the
	// core exploit its full issue width.
	DepDist float64
	// FPFrac is the fraction of non-memory instructions that are
	// long-latency arithmetic (floating point).
	FPFrac float64
}

// Instance is one dynamically created task instance (paper §II-A: "every
// execution of a task declaration statement results in the creation of a
// task instance").
type Instance struct {
	// ID is the creation-order index of the instance in its Program.
	ID int32
	// Type is the task type the instance belongs to.
	Type TypeID
	// Seed makes instruction expansion deterministic per instance.
	Seed uint64
	// Segments is the instance's instruction stream description.
	Segments []Segment
	// In, Out and InOut are dependency tokens (abstract data object IDs)
	// mirroring OmpSs in/out/inout clauses. The task graph derives
	// dependency edges from them.
	In, Out, InOut []uint64
}

// Instructions returns the total dynamic instruction count of the instance
// (the I_i of the paper's fast-forward formula C_i = I_i / IPC_T).
func (inst *Instance) Instructions() int64 {
	var n int64
	for i := range inst.Segments {
		n += inst.Segments[i].N
	}
	return n
}

// TypeInfo carries per-task-type metadata.
type TypeInfo struct {
	// Name is the human-readable task type name (e.g. "gemm").
	Name string
}

// Program is a complete application trace: the task types and the ordered
// list of task instances as they are created by the (simulated) runtime.
type Program struct {
	// Name identifies the benchmark.
	Name string
	// Types lists the task types; TypeID indexes this slice.
	Types []TypeInfo
	// Instances lists task instances in creation order.
	Instances []Instance
}

// NumTasks returns the number of task instances.
func (p *Program) NumTasks() int { return len(p.Instances) }

// NumTypes returns the number of task types.
func (p *Program) NumTypes() int { return len(p.Types) }

// TotalInstructions returns the sum of instruction counts over all
// instances.
func (p *Program) TotalInstructions() int64 {
	var n int64
	for i := range p.Instances {
		n += p.Instances[i].Instructions()
	}
	return n
}

// InstancesOf returns the indices of all instances of the given type, in
// creation order.
func (p *Program) InstancesOf(t TypeID) []int {
	var out []int
	for i := range p.Instances {
		if p.Instances[i].Type == t {
			out = append(out, i)
		}
	}
	return out
}

// Validation errors returned by Program.Validate.
var (
	ErrNoInstances = errors.New("trace: program has no instances")
	ErrNoTypes     = errors.New("trace: program has no types")
)

// Validate checks structural invariants: IDs are creation-order indices,
// type references are in range, segments are well-formed. It returns the
// first violation found.
func (p *Program) Validate() error {
	if len(p.Types) == 0 {
		return ErrNoTypes
	}
	if len(p.Instances) == 0 {
		return ErrNoInstances
	}
	for i := range p.Instances {
		inst := &p.Instances[i]
		if int(inst.ID) != i {
			return fmt.Errorf("trace: instance %d has ID %d, want creation order index", i, inst.ID)
		}
		if inst.Type < 0 || int(inst.Type) >= len(p.Types) {
			return fmt.Errorf("trace: instance %d references unknown type %d", i, inst.Type)
		}
		if len(inst.Segments) == 0 {
			return fmt.Errorf("trace: instance %d has no segments", i)
		}
		for j := range inst.Segments {
			if err := validateSegment(&inst.Segments[j]); err != nil {
				return fmt.Errorf("trace: instance %d segment %d: %w", i, j, err)
			}
		}
	}
	return nil
}

func validateSegment(s *Segment) error {
	switch {
	case s.N <= 0:
		return fmt.Errorf("instruction count %d must be positive", s.N)
	case s.MemRatio < 0 || s.MemRatio > 1:
		return fmt.Errorf("mem ratio %v out of [0,1]", s.MemRatio)
	case s.StoreFrac < 0 || s.StoreFrac > 1:
		return fmt.Errorf("store fraction %v out of [0,1]", s.StoreFrac)
	case !s.Pat.Valid():
		return fmt.Errorf("invalid pattern %d", s.Pat)
	case s.MemRatio > 0 && s.Footprint == 0:
		return errors.New("memory segment needs a footprint")
	case s.DepDist < 1:
		return fmt.Errorf("dependency distance %v must be >= 1", s.DepDist)
	case s.FPFrac < 0 || s.FPFrac > 1:
		return fmt.Errorf("fp fraction %v out of [0,1]", s.FPFrac)
	}
	return nil
}
