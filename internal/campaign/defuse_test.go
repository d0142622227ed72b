package campaign

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestLastReadsTranslated pins the trunk's last-read table to the
// interpreter on every workload: built while the trunk runs translated
// blocks, it must equal the table of an interpreted trunk, register for
// register.
func TestLastReadsTranslated(t *testing.T) {
	for _, w := range workloads.All(workloads.ScaleTest) {
		var tables [2]lastReads
		for i, bbt := range []bool{true, false} {
			cfg := SimConfig(sim.ModelAtomic, 0)
			cfg.EnableBlockTranslation = bbt
			r, err := NewRunner(w, RunnerOptions{Cfg: &cfg})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.EnableFork(DefaultForkOptions()); err != nil {
				t.Fatal(err)
			}
			tables[i] = r.lastReads
		}
		if tables[0] == (lastReads{}) {
			t.Fatalf("%s: no read recorded", w.Name)
		}
		for i := range tables[0] {
			if tables[0][i] != tables[1][i] {
				fp, reg := i >= isa.NumRegs, isa.Reg(i%isa.NumRegs)
				t.Errorf("%s: %s last read at commit %d translated, %d interpreted",
					w.Name, regName(fp, reg), tables[0][i], tables[1][i])
			}
		}
	}
}
