package main

// Campaign-service client mode (-server): submit specs to a running
// gemfi serve, watch campaigns stream in live over SSE, and resume
// watching after a client restart — the server's journal, not this
// process, is the source of truth.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/campaign"
	"repro/internal/serv"
)

// runClient submits spec to the service at server, or streams one of its
// campaigns (watch or resume).
func runClient(ctx context.Context, server string, spec *serv.CampaignSpec, submit bool, watch, resume string, stdout io.Writer) error {
	base := strings.TrimSuffix(server, "/")
	switch {
	case submit:
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		resp, err := send(ctx, http.MethodPost, base+"/campaigns", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return clientErr("submit", resp)
		}
		var created struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			return err
		}
		fmt.Fprintln(stdout, created.ID)
		return nil

	case watch != "":
		return watchCampaign(ctx, base, watch, false, stdout)

	case resume != "":
		return watchCampaign(ctx, base, resume, true, stdout)
	}
	return fmt.Errorf("client mode needs one of -submit, -watch <id>, -resume <id>")
}

// send makes one request to the service that ctx's cancellation aborts.
func send(ctx context.Context, method, url string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return http.DefaultClient.Do(req)
}

// watchCampaign streams a campaign until it finishes. In resume mode the
// report-so-far prints first, so a reconnecting client sees where the
// campaign stands before the stream (which replays history, then runs
// live) takes over.
func watchCampaign(ctx context.Context, base, id string, resumeMode bool, stdout io.Writer) error {
	if resumeMode {
		rep, err := fetchReport(ctx, base, id)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "campaign %s (%s, %s sampling): %d results so far\n",
			rep.ID, rep.Workload, rep.Sampling, rep.Total)
	}
	resp, err := send(ctx, http.MethodGet, base+"/campaigns/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return clientErr("stream", resp)
	}

	tally := make(campaign.Tally)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "result":
				var r campaign.Result
				if err := json.Unmarshal([]byte(data), &r); err != nil {
					return err
				}
				tally.Add(r)
				fmt.Fprintf(stdout, "exp %4d: %-18s (fault %s@%d, %d insts)\n",
					r.ID, r.Outcome, r.Fault.Loc, r.Fault.When, r.Insts)
			case "done":
				var st serv.CampaignStatus
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					return err
				}
				writeTally(stdout, fmt.Sprintf("\ncampaign %s %s: %d experiments", st.ID, st.Phase, tally.Total()), tally)
				if st.AggCIWidth > 0 {
					fmt.Fprintf(stdout, "vulnerability estimate %.4f (±%.4f at campaign confidence)\n",
						st.AggP, st.AggCIWidth/2)
				}
				return nil
			case "status":
				// Periodic keep-alive snapshots; nothing to print.
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream interrupted: %w (reconnect with -resume %s)", err, id)
	}
	return fmt.Errorf("stream ended before campaign finished (reconnect with -resume %s)", id)
}

func fetchReport(ctx context.Context, base, id string) (*serv.Report, error) {
	resp, err := send(ctx, http.MethodGet, base+"/campaigns/"+id+"/report", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, clientErr("report", resp)
	}
	var rep serv.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

func clientErr(op string, resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	if body.Error != "" {
		return fmt.Errorf("%s: %s (HTTP %d)", op, body.Error, resp.StatusCode)
	}
	return fmt.Errorf("%s: HTTP %d", op, resp.StatusCode)
}
