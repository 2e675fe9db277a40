// Cluster: a coordinator/worker sweep fabric in one process. Two
// workers execute whole stream-key batches and share one remote result
// store; a coordinator shards a Figure 7 sweep across them by workload
// affinity. The demo then kills a worker mid-cluster and shows batches
// re-routing to the survivor, and finally restarts against the shared
// store to re-serve the whole figure without simulating a cell — with
// every rendered figure byte-identical to a plain single-host run.
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"shift"
	"shift/internal/cluster"
	"shift/internal/store"
)

// newWorker starts an HTTP worker whose engine persists results to the
// shared blob store at blobURL — the same wiring as shiftd -worker
// -store-url.
func newWorker(blobURL string) (*httptest.Server, *shift.Engine) {
	eng := shift.NewEngine(2, shift.NewTieredRemoteStore(blobURL, nil))
	w := cluster.NewWorker(eng)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batch", w.HandleBatch)
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	return httptest.NewServer(mux), eng
}

// options is a reduced-scale Figure 7 configuration so the demo runs
// in seconds.
func options(eng *shift.Engine) shift.Options {
	o := shift.QuickOptions()
	o.Workloads = []string{"OLTP Oracle", "Web Search"}
	o.Cores = 8
	o.WarmupRecords = 20000
	o.MeasureRecords = 20000
	o.Engine = eng
	return o
}

func main() {
	// The reference: the same sweep on a plain single-host engine.
	ref, err := shift.RunFigure7(options(shift.NewEngine(0, shift.NewResultCache())))
	if err != nil {
		log.Fatal(err)
	}
	refText := ref.String()

	// One shared result store, served over the blob wire protocol with
	// CRC footers intact — every worker verifies blobs end to end.
	blobSrv := httptest.NewServer(store.NewBlobHandler(store.NewMem()))
	defer blobSrv.Close()

	srv1, eng1 := newWorker(blobSrv.URL)
	srv2, eng2 := newWorker(blobSrv.URL)
	defer srv2.Close()

	// Round-robin guarantees the demo exercises both workers; the
	// default affinity routing instead pins each workload family to one
	// worker so its trace graphs and store entries stay hot there.
	coord := cluster.New(cluster.Config{Peers: []string{srv1.URL, srv2.URL}, Router: &cluster.RoundRobinRouter{}})
	defer coord.Close()
	coordEng := shift.NewEngine(0, shift.NewResultCache())
	coordEng.SetExecutor(coord)

	fig, err := shift.RunFigure7(options(coordEng))
	if err != nil {
		log.Fatal(err)
	}
	st := coord.Stats()
	fmt.Printf("pass 1: %d batches routed across 2 workers (worker simulations: %d + %d)\n",
		st.BatchesRouted, eng1.Stats().Simulated, eng2.Stats().Simulated)
	fmt.Printf("clustered figure byte-identical to single host: %v\n\n", fig.String() == refText)

	// Kill worker 1 without telling the coordinator. Its batches fail
	// at dispatch, re-route to the survivor, and the sweep still
	// completes; the health probe then demotes the dead worker so later
	// sweeps skip it entirely.
	srv1.Close()
	coordEng2 := shift.NewEngine(0, shift.NewResultCache())
	coordEng2.SetExecutor(coord)
	o := options(coordEng2)
	o.Workloads = []string{"OLTP DB2", "Web Frontend"} // fresh cells, not memoized
	fig2, err := shift.RunFigure7(o)
	if err != nil {
		log.Fatal(err)
	}
	st = coord.Stats()
	fmt.Printf("pass 2 (worker killed): %d re-routes, %d dispatch errors, figure still rendered %d rows\n",
		st.BatchesRerouted, st.DispatchErrors, len(fig2.Rows))
	coord.Probe()
	for _, m := range coord.Members() {
		fmt.Printf("  worker %s: %s\n", m.Addr, m.State)
	}

	// Restart: a brand-new worker and coordinator against the same
	// store re-serve the first figure without simulating anything.
	srv3, eng3 := newWorker(blobSrv.URL)
	defer srv3.Close()
	coord2 := cluster.New(cluster.Config{Peers: []string{srv3.URL}})
	defer coord2.Close()
	coordEng3 := shift.NewEngine(0, shift.NewResultCache())
	coordEng3.SetExecutor(coord2)
	fig3, err := shift.RunFigure7(options(coordEng3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npass 3 (restarted cluster): simulated %d cells, byte-identical: %v\n",
		eng3.Stats().Simulated, fig3.String() == refText)
}
