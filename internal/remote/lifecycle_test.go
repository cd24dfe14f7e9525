package remote

import "testing"

// TestCoordinatorCloseIdempotent covers the Close lifecycle: closing a
// coordinator that never made a call must not allocate a client, repeated
// Close calls are harmless, and a closed coordinator remains usable (the
// next call builds a fresh client).
func TestCoordinatorCloseIdempotent(t *testing.T) {
	fresh := &Coordinator{ID: "G"}
	fresh.Close()
	fresh.Close()
	if fresh.cl != nil {
		t.Fatal("Close allocated a client on a coordinator that never called anyone")
	}

	coord, cleanup := startCluster(t)
	defer cleanup()
	if err := coord.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if coord.cl == nil {
		t.Fatal("Ping did not build the client")
	}
	coord.Close()
	if coord.cl != nil {
		t.Fatal("client survived Close")
	}
	coord.Close() // second Close is a no-op, not a panic or double-free
	// The coordinator stays usable: the next call builds a fresh client.
	if err := coord.Ping(); err != nil {
		t.Fatalf("Ping after Close: %v", err)
	}
	if coord.cl == nil {
		t.Fatal("Ping after Close did not rebuild the client")
	}
	coord.Close()
}
