package shift

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// designResultDigests pins, per design and mode, a sha256 over the
// marshalled RunResult of every catalog workload, in Workloads order, at
// the scale of TestDesignResultsPinned. A refactor of the prefetchers,
// the replay engine or the simulator must leave every digest as it is; a
// change that means to move results says which ones moved and why.
var designResultDigests = map[string]string{
	"exact/Baseline":        "a61ff5f5181fad490296578309f707d9732db88106bfb9a68842dfffd01d2383",
	"exact/NextLine":        "dca7312ec5ecf40a13dc2312b4ae8f2b6dd64ee8459e417382616db0ee242885",
	"exact/PIF_2K":          "5473c3863275e3e0dddfef5dfd429d113ddfe2e6b8fe96beb37a7d513a57f48d",
	"exact/PIF_32K":         "b5a7e1b73057e9639ada93a7edb0b5ad878fa1fa538d2d7cb34fbd7fb5f6e4f4",
	"exact/ZeroLat-SHIFT":   "7ed42d27125495b446d75f506d7e4e52288697f7420e94c1a91631f68895f2e8",
	"exact/SHIFT":           "41b61ecc23859fc3965ea1d6b108afa288debac93f08040ebc1a60a88f5695cf",
	"exact/TIFS":            "13918b106f0b2973740279fa8b52416ca370cdd85f964ba73faf9cedb65fff0c",
	"sampled/Baseline":      "c3a4b9f970339bce5f73b023869161da9dd36ca456cd1c0f3d80f8ca5df745c6",
	"sampled/NextLine":      "9fb6b925405f7e7f094feb6f56423022dfd8c4377da1c036eb20dafb9f13f882",
	"sampled/PIF_2K":        "051cd689595e047d2f2dbfcf01a5ed522fc6328420ba371549ef50fa22642613",
	"sampled/PIF_32K":       "f53a1586942c441e096e8d19d0906ec41a038cfac94b6c62758cbd11ff01c615",
	"sampled/ZeroLat-SHIFT": "d28aae2c4e9df20d2a72c5baa91c093e2cdec77998220c0d1273e4c1edd789f7",
	"sampled/SHIFT":         "00e7ae7777df455817bd243046902717a59a7efcf083198cd088c0eddde6e349",
	"sampled/TIFS":          "134184163003f455199041358092272a47df4b5f4bc01ffc6a9a479766011402",
}

// TestDesignResultsPinned runs all seven designs on every catalog
// workload at 4 cores through the engine, as the product runs a grid
// (one batch per record stream), exact (6k + 6k records a core) and
// sampled (1 interval in 4, 6k + 24k), and compares each design's
// results with the pinned digests.
func TestDesignResultsPinned(t *testing.T) {
	for _, mode := range []struct {
		name     string
		measure  int64
		sampling Sampling
	}{
		{"exact", 6000, Sampling{}},
		{"sampled", 24000, Sampling{Period: 4}},
	} {
		var cells []Cell
		for _, w := range Workloads() {
			for d := range designs {
				cfg := DefaultRunConfig(w, Design(d))
				cfg.Cores = 4
				cfg.WarmupRecords, cfg.MeasureRecords = 6000, mode.measure
				cfg.Sampling = mode.sampling
				cells = append(cells, cell(cfg))
			}
		}
		results, err := NewEngine(0, nil).RunAll(cells)
		if err != nil {
			t.Fatal(err)
		}
		for d := range designs {
			h := sha256.New()
			for i := d; i < len(results); i += len(designs) {
				buf, err := json.Marshal(results[i])
				if err != nil {
					t.Fatal(err)
				}
				h.Write(buf)
			}
			key := mode.name + "/" + Design(d).String()
			if got := hex.EncodeToString(h.Sum(nil)); got != designResultDigests[key] {
				t.Errorf("%s: results digest %s, pinned %s", key, got, designResultDigests[key])
			}
		}
	}
}
