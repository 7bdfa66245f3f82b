package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

func TestValidateCPUConfig(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*cpu.Config)
		want string // substring of the error; "" = valid
	}{
		{"table2", func(*cpu.Config) {}, ""},
		{"ruu-one", func(c *cpu.Config) { c.RUUSize, c.LSQSize = 1, 1 }, ""},
		{"lsq-equals-ruu", func(c *cpu.Config) { c.LSQSize = c.RUUSize }, ""},
		{"fetch-zero", func(c *cpu.Config) { c.FetchWidth = 0 }, "fetch width"},
		{"decode-zero", func(c *cpu.Config) { c.DecodeWidth = 0 }, "decode width"},
		{"issue-zero", func(c *cpu.Config) { c.IssueWidth = 0 }, "issue width"},
		{"commit-negative", func(c *cpu.Config) { c.CommitWidth = -1 }, "commit width"},
		{"alus-zero", func(c *cpu.Config) { c.IntALUs = 0 }, "integer ALU"},
		{"muldiv-zero", func(c *cpu.Config) { c.IntMulDiv = 0 }, "mul/div"},
		{"fpu-zero", func(c *cpu.Config) { c.FPUnits = 0 }, "FP unit"},
		{"ruu-zero", func(c *cpu.Config) { c.RUUSize = 0 }, "RUU size"},
		{"ruu-over-mask", func(c *cpu.Config) { c.RUUSize = cpu.MaxRUUSize + 1 }, "RUU size"},
		{"lsq-zero", func(c *cpu.Config) { c.LSQSize = 0 }, "LSQ size"},
		{"lsq-over-ruu", func(c *cpu.Config) { c.RUUSize, c.LSQSize = 16, 17 }, "LSQ size"},
		{"sb-zero", func(c *cpu.Config) { c.SBSize = 0 }, "store buffer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			tc.mod(&cfg.CPU)
			err := cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if !errors.Is(err, mem.ErrConfig) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want an ErrConfig naming %q", err, tc.want)
			}
			if _, err := NewMachineChecked(cfg); !errors.Is(err, mem.ErrConfig) {
				t.Fatalf("NewMachineChecked err = %v, want ErrConfig", err)
			}
		})
	}
}
