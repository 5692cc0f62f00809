package main

import (
	"os"
	"testing"
)

// TestRunsToCompletion runs the example end to end on its default workload
// (os.Args would otherwise pass the test flags as the workload name).
func TestRunsToCompletion(t *testing.T) {
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"mappingstudy"}
	main()
}
