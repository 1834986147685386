package core

// CorrelatedLog exposes the refinement fixture to the external tests.
var CorrelatedLog = correlatedLog
