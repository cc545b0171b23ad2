package serve_test

import (
	"bytes"
	"strings"
	"testing"

	"spear/internal/baselines"
	"spear/internal/serve"
)

// TestMultiMachineReplayByteIdentical extends the replay acceptance check to
// a 4-machine cluster: the run log must still be a pure function of the
// config.
func TestMultiMachineReplayByteIdentical(t *testing.T) {
	cfg := testConfig(11)
	cfg.Machines = 4
	first, err := mustRun(t, cfg).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(first), `"machines": 4`) {
		t.Error("run log config does not record the machine count")
	}
	loaded, err := serve.LoadRunLog(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config.Machines != 4 {
		t.Fatalf("loaded config has %d machines, want 4", loaded.Config.Machines)
	}
	replayBytes, err := mustRun(t, loaded.Config).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, replayBytes) {
		t.Fatal("4-machine replay differs from the original run")
	}
}

// TestExplicitSingleMachineMatchesLegacy pins the N=1 equivalence: a config
// that says Machines=1 must behave identically to one that omits the field
// (the legacy single-box path) — same events, same summary. Only the echoed
// config differs, by the explicit "machines": 1.
func TestExplicitSingleMachineMatchesLegacy(t *testing.T) {
	legacy := mustRun(t, testConfig(11))
	explicit := testConfig(11)
	explicit.Machines = 1
	one := mustRun(t, explicit)

	if len(legacy.Events) != len(one.Events) {
		t.Fatalf("event counts differ: legacy %d, machines=1 %d", len(legacy.Events), len(one.Events))
	}
	for i := range legacy.Events {
		if legacy.Events[i] != one.Events[i] {
			t.Fatalf("event %d differs:\nlegacy:     %+v\nmachines=1: %+v", i, legacy.Events[i], one.Events[i])
		}
	}
	if legacy.Summary.FinalClock != one.Summary.FinalClock ||
		legacy.Summary.Completed != one.Summary.Completed ||
		legacy.Summary.JainFairness != one.Summary.JainFairness {
		t.Errorf("summaries differ:\nlegacy:     %+v\nmachines=1: %+v", legacy.Summary, one.Summary)
	}
}

// TestDumpSchedulesMarshalReproducibly covers the log shape that embeds
// full schedules: with DumpSchedules on, every plan event carries its
// schedule, and two runs of the same config marshal byte-identically, so
// -replay can compare them.
func TestDumpSchedulesMarshalReproducibly(t *testing.T) {
	cfg := testConfig(11)
	cfg.Machines = 2
	cfg.DumpSchedules = true
	log := mustRun(t, cfg)

	var plans int
	for _, ev := range log.Events {
		if ev.Kind != "plan" {
			continue
		}
		plans++
		if ev.Schedule == nil {
			t.Fatalf("plan event for %s has no schedule despite DumpSchedules", ev.Job)
		}
	}
	if plans == 0 {
		t.Fatal("run planned no jobs; test config is too small")
	}

	data, err := log.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"schedule"`) {
		t.Error("marshaled log carries no schedule dumps")
	}
	again, err := mustRun(t, cfg).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("schedule-dumping runs are not byte-reproducible")
	}
}

// TestMachinesValidation rejects negative machine counts.
func TestMachinesValidation(t *testing.T) {
	cfg := testConfig(1)
	cfg.Machines = -1
	if _, err := serve.New(cfg, baselines.NewCPScheduler(), nil); err == nil {
		t.Error("negative machine count accepted")
	}
}
