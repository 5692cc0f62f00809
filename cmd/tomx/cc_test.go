package main

import (
	"strings"
	"testing"
)

// TestCCWorkload: the candidate table of a built-in workload — LIB's one
// kernel has two conditional loop candidates, each with its runtime trip
// condition.
func TestCCWorkload(t *testing.T) {
	code, stdout, stderr := runTomx(t, "", "cc", "-workload", "LIB")
	if code != 0 {
		t.Fatalf("tomx cc -workload LIB: exit status %d\n%s", code, stderr)
	}
	for _, want := range []string{
		"kernel lib: 24 instructions, 16 registers, 2 offload candidates\n",
		"\n  cand#0 [3,14) loop(conditional, >=6 trips) ",
		"\n    condition: trips(r7 lt r2, step 1) >= 6\n",
		"\n  cand#1 [14,23) loop(conditional, >=4 trips) ",
		"\n    condition: trips(r7 lt r3, step 1) >= 4\n",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}

// ccKernel is a one-block kernel: load and store one word per thread.
const ccKernel = `.kernel k
.params 2
  mov r2, %gtid
  shl r3, r2, 2
  add r3, r0, r3
  ld.global r4, [r3+0]
  st.global [r3+0], r4
  exit
`

// TestCCAssemblyOnStdin: assembly read from stdin is analyzed, and -d
// prints the disassembly ahead of the same table.
func TestCCAssemblyOnStdin(t *testing.T) {
	code, plain, stderr := runTomx(t, ccKernel, "cc", "-")
	if code != 0 {
		t.Fatalf("tomx cc -: exit status %d\n%s", code, stderr)
	}
	want := "kernel k: 6 instructions, 5 registers, 1 offload candidates\n  cand#0 [0,5) block "
	if !strings.HasPrefix(plain, want) {
		t.Errorf("tomx cc - printed\n%s\nwant it to start with %q", plain, want)
	}
	code, disasm, stderr := runTomx(t, ccKernel, "cc", "-d", "-")
	if code != 0 {
		t.Fatalf("tomx cc -d -: exit status %d\n%s", code, stderr)
	}
	if disasm != ccKernel+"\n"+plain {
		t.Errorf("tomx cc -d - printed\n%s\nwant the kernel's disassembly, a blank line, then\n%s", disasm, plain)
	}
}

// TestCCNeedsInput: no kernel and no workload is a usage error.
func TestCCNeedsInput(t *testing.T) {
	code, stdout, stderr := runTomx(t, "", "cc")
	if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "usage: tomx cc") {
		t.Errorf("tomx cc: exit %d, stdout %q, stderr %q; want 2, nothing, the usage", code, stdout, stderr)
	}
}
