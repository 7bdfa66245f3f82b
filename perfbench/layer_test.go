package main

import "testing"

func TestLayerOf(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/cpu.(*Core).issueStage":                                        "cpu",
		"repro/internal/interconnect.(*Bus[go.shape.*repro/internal/mem.msg]).tickReq": "interconnect",
		"repro/internal/mem.(*System).Tick":                                            "mem",
		"runtime.mallocgc":                                                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                                 "runtime",
		"net/http.(*conn).serve":                                                       "net/http",
		"main.runDirect":                                                               "main",
	} {
		if got := layerOf(sym); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", sym, got, want)
		}
	}
}
