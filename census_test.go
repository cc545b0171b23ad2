package spear_test

import (
	"reflect"
	"strings"
	"testing"

	"spear"
	"spear/internal/anneal"
)

// TestOptionCensusPinned pins every settable value of the configuration
// structs a caller can reach. Each field is one more configuration that
// tests, golden rows and bit-identity checks have to carry, so adding or
// removing one is a deliberate edit of this list: a new field needs a
// non-test caller that sets it to something other than its default. The
// scheduler and trainer options below count 13 + 7 + 9 + 2 + 2 = 33.
func TestOptionCensusPinned(t *testing.T) {
	census := []struct {
		name   string
		config any
		fields string
	}{
		{"MCTSConfig", spear.MCTSConfig{}, "InitialBudget MinBudget Rollout Expand NewExpander Window Seed " +
			"DisableBudgetDecay RolloutsPerExpansion RootParallelism TreeParallelism UseTranspositions Obs"},
		{"SpearConfig", spear.SpearConfig{}, "InitialBudget MinBudget RootParallelism TreeParallelism " +
			"UseTranspositions Seed Obs"},
		{"ReinforceConfig", spear.ReinforceConfig{}, "Epochs Rollouts BatchExamples Workers Opt Mode CheckpointEvery Checkpoint Metrics"},
		{"PretrainConfig", spear.PretrainConfig{}, "Epochs Opt"},
		{"anneal.Config", anneal.Config{}, "Iterations Seed"},
		// The training pipeline's wiring, not part of the scheduler census.
		{"ModelConfig", spear.ModelConfig{}, "Feat TrainJobs TasksPerJob PretrainCfg ReinforceCfg Seed Metrics"},
	}
	for _, c := range census {
		typ := reflect.TypeOf(c.config)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if g := strings.Join(got, " "); g != c.fields {
			t.Errorf("%s fields changed:\n got %s\nwant %s", c.name, g, c.fields)
		}
	}
}
