package cluster

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"shift"
	"shift/internal/store"
)

// newRemoteStoreWorker starts a worker whose engine persists results
// to the shared remote blob store at blobURL (hot in-memory tier over
// the remote tier, CRC-verified end to end).
func newRemoteStoreWorker(t *testing.T, blobURL string) (*httptest.Server, *shift.Engine) {
	t.Helper()
	eng := shift.NewEngine(2, shift.NewTieredRemoteStore(blobURL, nil))
	w := NewWorker(eng)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batch", w.HandleBatch)
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, eng
}

// TestClusterPersistsAcrossWorkerRestarts extends the engine's
// crash-restart determinism guarantee to the cluster boundary: a
// sweep's workers share one remote result store; one worker is killed
// mid-grid and its batches re-route; then EVERY worker goes away and a
// freshly restarted one serves the same figure byte-identically
// without simulating a single cell — the whole grid is memoized in the
// shared store.
func TestClusterPersistsAcrossWorkerRestarts(t *testing.T) {
	blobSrv := httptest.NewServer(store.NewBlobHandler(store.NewMem()))
	defer blobSrv.Close()

	ref, err := shift.RunFigure7(quadOptions(shift.NewEngine(2, shift.NewResultCache())))
	if err != nil {
		t.Fatal(err)
	}
	want := figureBytes(t, ref)

	// Generation 1: two workers over the shared store; one dies after
	// its first batch, so the sweep finishes on re-routed dispatches.
	srv1, _ := newRemoteStoreWorker(t, blobSrv.URL)
	srv2, _ := newRemoteStoreWorker(t, blobSrv.URL)
	chaos := newChaosTransport()
	chaos.set(t, srv1.URL, &chaosRule{killAfter: 1})
	coord1, eng1 := newCoordinatorEngine(t, Config{
		Peers:  []string{srv1.URL, srv2.URL},
		Router: &RoundRobinRouter{},
		Client: &http.Client{Transport: chaos},
	})
	fig1, err := shift.RunFigure7(quadOptions(eng1))
	if err != nil {
		t.Fatal(err)
	}
	if got := figureBytes(t, fig1); string(got) != string(want) {
		t.Fatal("generation-1 clustered figure differs from single-host")
	}
	if st := coord1.Stats(); st.CellsFallback != 0 {
		// Fallback cells would be stored only in the coordinator's local
		// cache, weakening the restart assertion below.
		t.Fatalf("generation 1 fell back in-process (%d cells); expected the survivor to absorb re-routes", st.CellsFallback)
	} else if st.BatchesRerouted == 0 || st.DispatchErrors == 0 {
		t.Fatalf("the killed worker caused %d re-routes and %d dispatch errors; want both", st.BatchesRerouted, st.DispatchErrors)
	}
	srv1.Close()
	srv2.Close()

	// Generation 2: a brand-new worker against the same store, a
	// brand-new coordinator and engine. Same bytes, zero simulations.
	srv3, eng3 := newRemoteStoreWorker(t, blobSrv.URL)
	_, eng2 := newCoordinatorEngine(t, Config{Peers: []string{srv3.URL}})
	fig2, err := shift.RunFigure7(quadOptions(eng2))
	if err != nil {
		t.Fatal(err)
	}
	if got := figureBytes(t, fig2); string(got) != string(want) {
		t.Fatal("restarted cluster re-served a different figure")
	}
	if sim := eng3.Stats().Simulated; sim != 0 {
		t.Fatalf("restarted worker re-simulated %d cells; want 0 (memoized in the shared store)", sim)
	}
	if hits, _ := eng3.Stats().StoreHits, 0; hits == 0 {
		t.Fatal("restarted worker recorded no store hits")
	}
}
