package service

import "clustereval/internal/experiment"

// The service's job vocabulary is the experiment registry's: specs,
// validation, canonicalisation and cache keys are all defined once in
// internal/experiment. The aliases below keep the service API (and its
// wire format) unchanged while making clusterd a thin client of the
// registry — a kind registered there is immediately submittable here.

// JobSpec is the canonical description of one simulation job; see
// experiment.Spec for the field semantics and the cache-key contract.
type JobSpec = experiment.Spec

// Result is the JSON payload of a completed job; the typed sub-results
// are defined alongside each kind in internal/experiment.
type Result = experiment.Result

// ValidationError marks a spec the registry refuses to run; the HTTP
// layer turns it into a 400.
type ValidationError = experiment.ValidationError

// Kinds returns every job kind the service accepts, in the registry's
// stable order.
func Kinds() []string { return experiment.Kinds() }

// Canonicalize normalises the spec and derives its content address (the
// cache key); see experiment.Canonicalize.
func Canonicalize(spec JobSpec) (JobSpec, string, error) {
	return experiment.Canonicalize(spec)
}
