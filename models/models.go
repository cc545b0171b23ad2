// Package models holds the policy network Spear schedules with and the one
// recipe that trained it. policy.gob is the network Recipe trains:
// `spear-train -seed 1` with no other flag writes the same bytes.
package models

import (
	"bytes"
	_ "embed"
	"fmt"
	"os"

	"spear/internal/core"
	"spear/internal/drl"
	"spear/internal/nn"
)

//go:embed policy.gob
var policy []byte

// Recipe is §V-B3's training pipeline: 144 random 25-task jobs, 20 epochs
// of supervised warm start imitating the critical-path heuristic, then 300
// REINFORCE epochs of 20 rollouts per job (the paper trains 7000 from
// scratch; from the warm start the curve falls under 3 % in 300, most of it
// in the first 25). Training moves no bit with the worker count.
var Recipe = core.ModelConfig{
	Feat:         drl.DefaultFeatures(),
	TrainJobs:    144,
	TasksPerJob:  25,
	PretrainCfg:  drl.PretrainConfig{Epochs: 20, Opt: nn.RMSProp{LR: 1e-3, Rho: 0.9, Eps: 1e-8}},
	ReinforceCfg: drl.TrainConfig{Epochs: 300, Rollouts: 20},
	Seed:         1,
}

// Load reads the policy network saved at path, or the checked-in one when
// path is empty, and refuses a network that does not read the default
// featurization.
func Load(path string) (*nn.Network, error) {
	data, name := policy, "the checked-in policy"
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
		name = "model " + path
	}
	net, err := nn.Load(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if in, want := net.InputSize(), drl.DefaultFeatures().InputSize(); in != want {
		return nil, fmt.Errorf("%s reads %d inputs, the default featurization %d; retrain with spear-train", name, in, want)
	}
	return net, nil
}
