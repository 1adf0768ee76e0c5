package sim

// TraceGenVersion identifies the generation of the trace producer: the
// workload models, the emitter, and the trace-file encoding that together
// determine the recorded bytes for a given (workload, input, options).
// It is folded into every trace-store content hash, so bumping it
// invalidates all cached traces at once — stale entries simply stop
// being addressable, with no migration or deletion step.
//
// Bump this whenever a change alters the byte stream an identical
// (workload, input, options) tuple records: workload model behaviour,
// emitter batching that reaches the wire, trace wire format, or XOR
// naming. CI keys its cross-run trace cache on a hash of this file, so
// a bump also rolls the actions/cache key.
const TraceGenVersion = 2
