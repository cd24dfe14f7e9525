package obs

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"github.com/hetfed/hetfed/internal/metrics"
)

func TestHealthyStates(t *testing.T) {
	for state, want := range map[string]bool{
		"closed":        true,
		"ok":            true,
		"ok(seq=412)":   true,
		"open":          false,
		"half-open":     false,
		"pending(3)":    false,
		"needs-rebuild": false,
		"stopped":       false,
		"":              false,
	} {
		if got := Healthy(state); got != want {
			t.Errorf("Healthy(%q) = %v, want %v", state, got, want)
		}
	}
}

func TestPrefixHealth(t *testing.T) {
	src := Health(func() map[string]string {
		return map[string]string{"DB2": "pending(3)", "DB3": "closed"}
	})
	got := PrefixHealth("resync", src)()
	want := map[string]string{"resync:DB2": "pending(3)", "resync:DB3": "closed"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PrefixHealth = %v, want %v", got, want)
	}

	if got := PrefixHealth("x", nil)(); got != nil {
		t.Errorf("nil source yields %v, want nil", got)
	}
	empty := Health(func() map[string]string { return nil })
	if got := PrefixHealth("x", empty)(); got != nil {
		t.Errorf("empty source yields %v, want nil", got)
	}
}

// healthzBody fetches and decodes /healthz from a server composed of the
// given health sources.
func healthzBody(t *testing.T, health ...Health) struct {
	Status   string            `json:"status"`
	Breakers map[string]string `json:"breakers"`
	Degraded []string          `json:"degraded_peers"`
} {
	t.Helper()
	s, err := Serve("127.0.0.1:0", "G", metrics.New(), nil, health...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := get(t, s.Addr(), "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz status %d: %s", code, body)
	}
	var got struct {
		Status   string            `json:"status"`
		Breakers map[string]string `json:"breakers"`
		Degraded []string          `json:"degraded_peers"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("healthz JSON: %v in %q", err, body)
	}
	return got
}

// One /healthz composes breaker, resync, and WAL sources; all healthy —
// including the WAL's annotated "ok(seq=N)" — keeps status "ok".
func TestHealthzMultiSourceAllHealthy(t *testing.T) {
	breakers := Health(func() map[string]string {
		return map[string]string{"DB2": "closed", "DB3": "closed"}
	})
	resync := Health(func() map[string]string { return nil })
	wal := Health(func() map[string]string {
		return map[string]string{"engine": "ok(seq=412)"}
	})

	got := healthzBody(t, breakers, PrefixHealth("resync", resync), PrefixHealth("wal", wal))
	if got.Status != "ok" {
		t.Errorf("status = %q, want ok; body %+v", got.Status, got)
	}
	if len(got.Degraded) != 0 {
		t.Errorf("degraded_peers = %v, want none", got.Degraded)
	}
	want := map[string]string{"DB2": "closed", "DB3": "closed", "wal:engine": "ok(seq=412)"}
	if !reflect.DeepEqual(got.Breakers, want) {
		t.Errorf("conditions = %v, want %v", got.Breakers, want)
	}
}

// Degraded-status precedence: a single unhealthy entry from any source —
// here the resync backlog, while every breaker is closed and the WAL is
// fine — flips the merged status, and the offending entries are listed
// sorted under degraded_peers.
func TestHealthzMultiSourcePrecedence(t *testing.T) {
	breakers := Health(func() map[string]string {
		return map[string]string{"DB2": "closed", "DB3": "half-open"}
	})
	resync := Health(func() map[string]string {
		return map[string]string{"DB3": "pending(2)"}
	})
	wal := Health(func() map[string]string {
		return map[string]string{"engine": "ok(seq=9)"}
	})

	got := healthzBody(t, breakers, PrefixHealth("resync", resync), PrefixHealth("wal", wal))
	if got.Status != "degraded" {
		t.Errorf("status = %q, want degraded; body %+v", got.Status, got)
	}
	wantDegraded := []string{"DB3", "resync:DB3"}
	if !reflect.DeepEqual(got.Degraded, wantDegraded) {
		t.Errorf("degraded_peers = %v, want %v (sorted, healthy entries excluded)",
			got.Degraded, wantDegraded)
	}
	if got.Breakers["wal:engine"] != "ok(seq=9)" {
		t.Errorf("wal entry = %q, lost in the merge", got.Breakers["wal:engine"])
	}

	// A stopped WAL alone degrades too: precedence is any-unhealthy-wins,
	// regardless of which source contributes the entry.
	got = healthzBody(t,
		Health(func() map[string]string { return map[string]string{"DB2": "closed"} }),
		PrefixHealth("wal", func() map[string]string {
			return map[string]string{"engine": "stopped"}
		}))
	if got.Status != "degraded" || len(got.Degraded) != 1 || got.Degraded[0] != "wal:engine" {
		t.Errorf("stopped WAL: %+v, want degraded with wal:engine listed", got)
	}
}
