package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/hetfed/hetfed/internal/metrics"
)

// maxFetchBody bounds what a client of the surface reads of one answer: a
// wedged or hostile endpoint must not exhaust the process reading it.
const maxFetchBody = 64 << 20

// scrapeTimeout bounds one /metrics exchange when the caller's context has
// no deadline; a wedged observability endpoint must not wedge the
// measurement harness scraping it.
const scrapeTimeout = 10 * time.Second

// FetchJSON is the client half of every JSON endpoint on the surface: GET
// url under ctx, refuse anything but 200, read at most maxFetchBody and
// decode into v.
func FetchJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("obs: fetch %s: %w", url, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("obs: fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("obs: fetch %s: status %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxFetchBody))
	if err != nil {
		return fmt.Errorf("obs: fetch %s: read: %w", url, err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("obs: fetch %s: %w", url, err)
	}
	return nil
}

// Scrape fetches a /metrics endpoint's JSON form into a Snapshot — the
// client half of scrape-based measurement: snapshot a server before a run,
// again after it, and Delta the two so the server's own truth (bytes moved,
// degraded counts) is measured without trusting the client's view.
//
// url is the full endpoint URL, e.g. "http://127.0.0.1:8101/metrics". The
// request carries ctx and a 10s default deadline when ctx has none.
func Scrape(ctx context.Context, url string) (metrics.Snapshot, error) {
	if _, has := ctx.Deadline(); !has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, scrapeTimeout)
		defer cancel()
	}
	var s metrics.Snapshot
	err := FetchJSON(ctx, http.DefaultClient, url, &s)
	return s, err
}
