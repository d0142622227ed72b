// now-cluster demonstrates GemFI's network-of-workstations campaign
// execution (Section III.E of the paper) entirely in one process: the
// campaign service as the TCP master holding the checkpoint and
// experiment queue (with no local slots of its own), and three
// "worker workstations" with two slots each, connected over loopback.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	gemfi "repro"
	"repro/internal/campaign"
	"repro/internal/now"
)

func main() {
	dir, err := os.MkdirTemp("", "now-cluster")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	master, err := gemfi.NewCampaignService(gemfi.ServiceConfig{Dir: dir, Slots: -1})
	if err != nil {
		log.Fatal(err)
	}
	defer master.Shutdown(time.Second)

	// The master runs the golden simulation once, capturing the checkpoint
	// the workers are welcomed with, then plans 60 uniform experiments.
	id, err := master.Submit(gemfi.CampaignSpec{Workload: "jacobi", N: 60, Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	master.WaitPrepared(id, time.Minute)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	master.ServeWorkers(ln)
	fmt.Printf("master listening on %s with 60 experiments\n", ln.Addr())

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := gemfi.NewNoWWorker(now.WorkerConfig{
				Addr:  ln.Addr().String(),
				Slots: 2,
				Name:  fmt.Sprintf("workstation%d", i),
			})
			n, err := w.Run()
			if err != nil {
				log.Printf("workstation%d: %v", i, err)
			}
			fmt.Printf("workstation%d completed %d experiments\n", i, n)
		}(i)
	}
	wg.Wait()
	if !master.Wait(id, time.Minute) {
		log.Fatal("campaign did not finish")
	}

	c, _ := master.Campaign(id)
	tally := campaign.TallyOf(c.Results())
	fmt.Printf("\ncampaign outcome distribution (%d experiments):\n", tally.Total())
	for _, o := range campaign.Outcomes() {
		fmt.Printf("  %-18s %4d (%5.1f%%)\n", o, tally[o], 100*tally.Fraction(o))
	}
}
