package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/cli"
	"repro/internal/measure"
	"repro/internal/pcap"
	"repro/internal/topo"
)

// The tests re-execute the test binary as anomaly-study itself: with
// asMainEnv set, TestMain runs main() on the process's arguments instead of
// the tests, so exit codes and stderr are the shipped binary's.
const asMainEnv = "ANOMALY_STUDY_TEST_AS_MAIN"

// gadgetsEnv, set in a re-executed binary's environment, generates its
// topology with the IP-ID-reading gadgets (zero-TTL pods and loopers) at 0.2
// instead of their rare defaults, and without the gadgets whose forwarding
// depends on how workers interleave (per-packet balancers, flapping and
// flipping pods), so that runs at any worker count are byte-reproducible.
const gadgetsEnv = "ANOMALY_STUDY_TEST_GADGETS"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		simulateNetwork()
		if os.Getenv(gadgetsEnv) != "" {
			generate = func(t *cli.Topo) (*topo.Scenario, error) {
				cfg, err := t.Config()
				cfg.PZeroTTLPod, cfg.PLooperPod = 0.2, 0.2
				cfg.PPerPacket, cfg.PPerPacketUnequal, cfg.PDiff2, cfg.PFlapDiamondPod, cfg.PFlipPod = 0, 0, 0, 0, 0
				return topo.Generate(cfg), err
			}
		}
		main()
		return
	}
	os.Exit(m.Run())
}

func study(t *testing.T, args ...string) (stderr string, exit int) {
	t.Helper()
	return studyEnv(t, nil, args...)
}

// studyEnv is study with extra environment variables.
func studyEnv(t *testing.T, env []string, args ...string) (stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), asMainEnv+"=1"), env...)
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return errb.String(), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return errb.String(), 0
}

var toyStudy = []string{"-dests", "4", "-rounds", "4", "-workers", "1", "-flips=false", "-seed", "7"}

var update = flag.Bool("update", false, "rewrite the testdata/ goldens from this build's output")

// TestOutputGolden pins the report and the -stats-json of the one-worker,
// flip-free study — the configuration whose statistics are a pure function of
// the flags — on a static topology and with netsim's dynamics on. A change
// that means to alter either rewrites the files with -update and shows the
// diff; any other change must leave them byte-equal.
func TestOutputGolden(t *testing.T) {
	base := []string{"-dests", "120", "-rounds", "24", "-workers", "1", "-flips=false", "-seed", "7"}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"static", base},
		{"dynamics", append(slices.Clone(base), "-delay", "1", "-load", "0.3", "-churn", "0.5")},
	} {
		statsJSON := filepath.Join(t.TempDir(), "stats.json")
		cmd := exec.Command(os.Args[0], append(c.args, "-stats-json", statsJSON)...)
		cmd.Env = append(os.Environ(), asMainEnv+"=1")
		var errb bytes.Buffer
		cmd.Stderr = &errb
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v: %s", c.name, err, errb.String())
		}
		stats, err := os.ReadFile(statsJSON)
		if err != nil {
			t.Fatal(err)
		}
		for golden, got := range map[string][]byte{c.name + ".stdout": stdout, c.name + ".stats.json": stats} {
			golden = filepath.Join("testdata", golden)
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if want, err := os.ReadFile(golden); err != nil {
				t.Errorf("%v (record with -update)", err)
			} else if !bytes.Equal(got, want) {
				t.Errorf("%s differs from this build's output (rerun with -update to accept):\n%s", golden, got)
			}
		}
	}
}

// TestResumeRefusesLegacyJSONCheckpoint: -resume on a version-2 JSON
// checkpoint (the fixture is the last JSON build's output for toyStudy,
// halted after two rounds) exits 1 with an error that names the old format,
// and leaves the file alone.
func TestResumeRefusesLegacyJSONCheckpoint(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("..", "..", "internal", "measure", "testdata", "legacy-v2.ck.json"))
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "study.ck")
	if err := os.WriteFile(ck, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	stderr, exit := study(t, append(toyStudy, "-checkpoint", ck, "-resume")...)
	if exit != 1 || !strings.Contains(stderr, "legacy JSON checkpoint") || !strings.Contains(stderr, "study.ck") {
		t.Fatalf("exit %d, stderr %q: want exit 1 naming the legacy JSON format and the file", exit, stderr)
	}
	if after, err := os.ReadFile(ck); err != nil || !bytes.Equal(after, legacy) {
		t.Errorf("refused checkpoint was modified (%v)", err)
	}
}

// TestHaltAndResume is the CI kill-and-resume step in miniature: the same
// flags halted, then resumed from the binary checkpoint, write the
// statistics of the uninterrupted run byte for byte. The gadget rows arm the
// two classification rules that read response IP IDs, which a checkpoint
// does not store: resuming must not need them, at one worker or two.
func TestHaltAndResume(t *testing.T) {
	gadgetStudy := []string{"-dests", "60", "-rounds", "6", "-flips=false", "-seed", "7"}
	for _, tc := range []struct {
		name    string
		env     []string
		args    []string
		haltAt  string
		gadgets bool
	}{
		{"toy", nil, toyStudy, "2", false},
		{"gadgets workers=1", []string{gadgetsEnv + "=1"}, append(gadgetStudy, "-workers", "1"), "3", true},
		{"gadgets workers=2", []string{gadgetsEnv + "=1"}, append(gadgetStudy, "-workers", "2"), "3", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ck, full, resumed := filepath.Join(dir, "study.ck"), filepath.Join(dir, "full.json"), filepath.Join(dir, "resumed.json")
			for _, extra := range [][]string{
				{"-stats-json", full},
				{"-checkpoint", ck, "-halt-after", tc.haltAt},
				{"-checkpoint", ck, "-resume", "-stats-json", resumed},
			} {
				if stderr, exit := studyEnv(t, tc.env, append(slices.Clone(tc.args), extra...)...); exit != 0 {
					t.Fatalf("%v: exit %d: %s", extra, exit, stderr)
				}
			}
			a, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(resumed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Error("resumed statistics differ from the uninterrupted run")
			}
			if !tc.gadgets {
				return
			}
			var st measure.Stats
			if err := json.Unmarshal(a, &st); err != nil {
				t.Fatal(err)
			}
			if st.Loops.ByCause[anomaly.CauseZeroTTL] == 0 || st.Cycles.Instances == 0 {
				t.Errorf("no zero-TTL loop or no cycle in this draw (loops %v, %d cycles): the IP ID rules are not exercised", st.Loops.ByCause, st.Cycles.Instances)
			}
		})
	}
}

// TestReplayRefusesUnusableCaptures: -replay on a capture it cannot load
// exits 1 with an error that names the file and says what is wrong with it
// — an Ethernet capture straight from tcpdump is refused by its link type
// (not as "does not begin with a probe"), and a torn file reports how many
// complete records precede the tear.
func TestReplayRefusesUnusableCaptures(t *testing.T) {
	good, err := os.ReadFile(filepath.Join("..", "..", "internal", "tracer", "replay", "testdata", "corpus", "clean-paris-udp.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	whole, err := pcap.ReadAll(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	ethernet := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(ethernet[20:], 1) // LINKTYPE_ETHERNET
	torn := good[:len(good)-3]

	for _, c := range []struct {
		name string
		raw  []byte
		want []string
	}{
		{"ethernet.pcap", ethernet, []string{"link type 1 (Ethernet)", "LINKTYPE_RAW"}},
		{"torn.pcap", torn, []string{"truncated", fmt.Sprintf("%d complete records precede the tear", len(whole)-1)}},
	} {
		path := filepath.Join(t.TempDir(), c.name)
		if err := os.WriteFile(path, c.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		stderr, exit := study(t, "-replay", path)
		if exit != 1 {
			t.Errorf("%s: exit %d, want 1: %s", c.name, exit, stderr)
		}
		for _, want := range append(c.want, c.name) {
			if !strings.Contains(stderr, want) {
				t.Errorf("%s: stderr %q does not mention %q", c.name, stderr, want)
			}
		}
	}
}
