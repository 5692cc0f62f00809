package main

import "testing"

// TestRunsToCompletion runs the example end to end: it assembles, analyses
// and simulates its kernel, and exits through log.Fatal if the result is
// wrong.
func TestRunsToCompletion(t *testing.T) { main() }
