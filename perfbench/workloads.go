package main

import (
	"context"
	"time"

	"pytfhe/internal/chiseltorch"
	"pytfhe/internal/models"
	"pytfhe/internal/params"
	"pytfhe/internal/vipbench"
)

// runServeD128 is pytfhed at production parameters with default flags:
// one Default128 tenant, two closed-loop clients, VIP-Bench primality.
func runServeD128(ctx context.Context, e *env) (*outcome, error) {
	prog, err := vipProgram(vipbench.Primality())
	if err != nil {
		return nil, err
	}
	return runServe(ctx, e, &serveConfig{
		params:     params.Default128(),
		daemonArgs: nil,
		tenants:    []tenant{{role: "bulk", prog: prog, clients: 2}},
		// One set-up takes ~15 s on a 2-core Xeon (two 124 MB key
		// uploads), so a run sets up once; setup_s is steadied by the
		// median across runs.
		setups: 1,
	})
}

// interactivePeriod is the open-loop send period of the interactive
// tenant. Under the bulk flood one string-search takes 0.45–0.55 s on two
// cores, so a 500 ms period would leave its one connection saturated and
// report backlog instead of latency; at 1 s it stays below saturation.
const interactivePeriod = time.Second

// runServeTwoTenant is pytfhed -lut at test parameters with two tenants:
// a closed-loop bulk client sending an MNIST_S slice and an open-loop
// interactive client sending string-search every second.
func runServeTwoTenant(ctx context.Context, e *env) (*outcome, error) {
	bulk, err := modelProgram("mnist_s-slice5", models.MNISTS().Scaled(5), chiseltorch.NewFixed(4, 4))
	if err != nil {
		return nil, err
	}
	inter, err := vipProgram(vipbench.StringSearch())
	if err != nil {
		return nil, err
	}
	return runServe(ctx, e, &serveConfig{
		params:     params.Test(),
		daemonArgs: []string{"-lut", "-noise-params", "test"},
		tenants: []tenant{
			{role: "bulk", prog: bulk, clients: 1},
			{role: "interactive", prog: inter, clients: 1, period: interactivePeriod},
		},
		latencyOf: "interactive",
		// One set-up takes ~7 s on a 2-core Xeon; a run sets up twice
		// and setup_s is steadied further by the median across runs.
		setups: 2,
	})
}
