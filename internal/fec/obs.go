package fec

import "ppr/internal/obs"

// Package-level metric handles. Decode and Repairs are free functions with
// no construction moment, so the sites go through obs Vars: two atomic
// loads and a pointer compare per call, re-resolving only when the default
// registry changes — negligible against a trellis pass over a block.
var (
	// mSOVAInvocations counts Decode calls — every full soft-output
	// trellis pass (the coded-PHY hint path).
	mSOVAInvocations = &obs.CounterVar{Name: "fec.sova_invocations"}
	// mSOVABits counts decoded information bits across those passes.
	mSOVABits = &obs.CounterVar{Name: "fec.sova_bits"}
	// mRepairBlocks counts Repairs calls on well-formed blocks — every
	// metric-only trellis pass the FEC recovery schemes run.
	mRepairBlocks = &obs.CounterVar{Name: "fec.repair_blocks"}
	// mRepairSteps counts the trellis steps those passes ran before
	// answering (a hopeless block stops early).
	mRepairSteps = &obs.CounterVar{Name: "fec.repair_steps"}
)
