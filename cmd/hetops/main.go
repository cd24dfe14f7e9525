// Command hetops is the federation's live terminal dashboard: it polls a
// coordinator's cluster endpoints (/cluster, /cluster/alerts,
// /cluster/queries — served when hetserve runs with -cluster-scrape) and
// stacks their three text forms on one screen: per-site QPS/p50/p99/
// degraded%, each replica's anti-entropy repair state (suspect mapping
// classes show up red), breaker/WAL conditions, the SLO alerts, and the
// slowest queries federation-wide with links to their traces. Plain ANSI,
// stdlib only.
//
//	hetops -cluster http://127.0.0.1:8100            # live, refreshed in place
//	hetops -cluster http://127.0.0.1:8100 -once      # one render, no clearing
//	hetops -cluster http://127.0.0.1:8100 -once -json # combined JSON for scripts
//
// The -json document nests the three endpoints' payloads verbatim
// ({"cluster": ..., "alerts": ..., "queries": ...}), so it round-trips
// through encoding/json and jq.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"regexp"
	"strings"
	"syscall"
	"time"

	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/obs/agg"
	"github.com/hetfed/hetfed/internal/obs/slo"
	"github.com/hetfed/hetfed/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hetops:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hetops", flag.ContinueOnError)
	var (
		cluster     = fs.String("cluster", "http://127.0.0.1:8100", "base URL of the coordinator's observability surface")
		interval    = fs.Duration("interval", 2*time.Second, "refresh interval in live mode")
		once        = fs.Bool("once", false, "render one snapshot and exit")
		asJSON      = fs.Bool("json", false, "emit the combined snapshot as JSON (implies -once)")
		topN        = fs.Int("n", 10, "slow queries to show")
		noColor     = fs.Bool("no-color", false, "disable ANSI colors")
		showVersion = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(out, "hetops", version.String())
		return nil
	}
	base := strings.TrimSuffix(*cluster, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 10 * time.Second}

	if *asJSON || *once {
		snap, err := fetch(context.Background(), client, base, *topN)
		if err != nil {
			return err
		}
		if *asJSON {
			data, err := json.MarshalIndent(snap, "", " ")
			if err != nil {
				return err
			}
			fmt.Fprintln(out, string(data))
			return nil
		}
		render(out, snap, base, false)
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	color := !*noColor && isTerminal(out)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		snap, err := fetch(ctx, client, base, *topN)
		fmt.Fprint(out, "\x1b[H\x1b[2J") // cursor home + clear screen
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			fmt.Fprintf(out, "hetops: %v (retrying every %s)\n", err, *interval)
		} else {
			render(out, snap, base, color)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
	}
}

// snapshot is the combined dashboard document: the three cluster
// endpoints' payloads, verbatim.
type snapshot struct {
	Cluster agg.Rollup         `json:"cluster"`
	Alerts  []slo.Alert        `json:"alerts"`
	Queries []obs.QuerySummary `json:"queries"`
}

func fetch(ctx context.Context, client *http.Client, base string, n int) (snapshot, error) {
	var snap snapshot
	if err := obs.FetchJSON(ctx, client, base+"/cluster?format=json", &snap.Cluster); err != nil {
		return snap, err
	}
	if err := obs.FetchJSON(ctx, client, base+"/cluster/alerts?format=json", &snap.Alerts); err != nil {
		return snap, err
	}
	url := fmt.Sprintf("%s/cluster/queries?format=json&n=%d", base, n)
	return snap, obs.FetchJSON(ctx, client, url, &snap.Queries)
}

// render stacks the three documents' own text forms under section titles.
// The colours are the dashboard's: applied to the words of the rendered
// text, so -once output and pipes stay clean and the columns stay aligned.
func render(w io.Writer, s snapshot, base string, color bool) {
	text := fmt.Sprintf("HETFED CLUSTER  %s\n%s\nALERTS\n%s\nSLOW QUERIES\n%s",
		base, s.Cluster.Text(), slo.AlertsText(s.Alerts), obs.QueriesText(s.Queries, base))
	if color {
		for _, p := range palette {
			text = p.words.ReplaceAllString(text, p.code+"$0\x1b[0m")
		}
	}
	fmt.Fprint(w, text)
}

// palette paints what an operator must not miss: red for a site, alert or
// replica that is down, firing or suspect; yellow for what is degrading;
// green for what is well; bold for the section titles.
var palette = []struct {
	code  string
	words *regexp.Regexp
}{
	{"\x1b[31m", regexp.MustCompile(`stale\(\d+s\)|\bnever\b|\bunreachable\b|\bFIRING\b|SUSPECT\S*`)},
	{"\x1b[33m", regexp.MustCompile(`\bWARN\b|\b(degraded|unknown|error|canceled|deadline)\b\s`)},
	{"\x1b[32m", regexp.MustCompile(`\blive\b|\bOK\b`)},
	{"\x1b[1m", regexp.MustCompile(`(?m)^(HETFED CLUSTER|ALERTS|SLOW QUERIES)`)},
}

// isTerminal reports whether w is an interactive terminal (a character
// device) — the only case worth coloring.
func isTerminal(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	fi, err := f.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
