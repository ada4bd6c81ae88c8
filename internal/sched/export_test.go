package sched

// RefAllocateTopology is the sort-based placement oracle, exported to the
// external test package.
var RefAllocateTopology = refAllocateTopology
