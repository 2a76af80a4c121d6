// Command kgeeval evaluates a saved embedding checkpoint against a dataset:
// filtered MRR, Hits@{1,3,10} and triple classification accuracy.
//
// Example:
//
//	kgetrain -dataset fb15k-mini -save model.kge
//	kgegen -out ./data/mini ... ; kgeeval -data ./data/mini -model model.kge
//
// With -json the full result set — including the per-side, per-relation-
// category breakdown — is emitted as one machine-readable JSON object, so
// serve smoke tests and bench tooling can diff quality without scraping
// the human-readable table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"kgedist/internal/eval"
	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/xrand"
)

// jsonReport is the -json output shape. Category keys use the literature's
// names ("1-1", "1-N", "N-1", "N-N", "unknown").
type jsonReport struct {
	Model    string               `json:"model"`
	Dim      int                  `json:"dim"`
	Dataset  string               `json:"dataset"`
	Rank     eval.RankResult      `json:"rank"`
	Detailed jsonDetailed         `json:"detailed"`
	TCA      eval.TCAResult       `json:"tca"`
	AUC      float64              `json:"auc"`
	Info     model.CheckpointInfo `json:"checkpoint"`
}

type jsonDetailed struct {
	Overall    eval.SideResult            `json:"overall"`
	ByCategory map[string]eval.SideResult `json:"by_category"`
}

func main() {
	var (
		dataDir  = flag.String("data", "", "OpenKE-layout dataset directory")
		preset   = flag.String("dataset", "", "synthetic preset instead of -data: fb15k-mini, fb250k-mini, fb15k-full, fb250k-full")
		ckpt     = flag.String("model", "", "checkpoint file written by kgetrain -save (required)")
		sample   = flag.Int("sample", 0, "subsample the test split for ranking (0 = all)")
		seed     = flag.Uint64("seed", 1, "random seed (dataset generation and corruption)")
		asJSON   = flag.Bool("json", false, "emit one machine-readable JSON object instead of the text table")
		detailed = flag.Bool("detailed", false, "also print the per-side / per-category breakdown (implied by -json)")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *ckpt == "" {
		fail(fmt.Errorf("kgeeval: -model is required"))
	}
	// Header-only pass: validates the CRC and yields the shape, so a
	// model/dataset mismatch fails before the weight matrices are read.
	info, err := model.ReadCheckpointInfo(*ckpt)
	if err != nil {
		fail(err)
	}
	d, err := kg.Load(*preset, *dataDir, "", *seed)
	if err != nil {
		fail(err)
	}
	if info.Entities != d.NumEntities || info.Relations != d.NumRelations {
		fail(fmt.Errorf("kgeeval: checkpoint shape (%d entities, %d relations) does not match dataset (%d, %d)",
			info.Entities, info.Relations, d.NumEntities, d.NumRelations))
	}
	m, p, err := model.LoadCheckpoint(*ckpt)
	if err != nil {
		fail(err)
	}
	filter := kg.NewFilterIndex(d)
	rng := xrand.New(*seed)
	lp := eval.LinkPrediction(m, p, d, filter, *sample, rng)
	tc := eval.TripleClassification(m, p, d, filter, rng)
	auc := eval.AUC(m, p, d, filter, rng)

	var det eval.DetailedResult
	if *asJSON || *detailed {
		det = eval.DetailedLinkPrediction(m, p, d, filter, *sample, xrand.New(*seed))
	}

	if *asJSON {
		rep := jsonReport{
			Model:   m.Name(),
			Dim:     m.Dim(),
			Dataset: d.Name,
			Rank:    lp,
			TCA:     tc,
			AUC:     auc,
			Info:    info,
			Detailed: jsonDetailed{
				Overall:    det.Overall,
				ByCategory: map[string]eval.SideResult{},
			},
		}
		for cat, r := range det.ByCategory {
			rep.Detailed.ByCategory[cat.String()] = r
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
		return
	}

	fmt.Printf("model %s (dim %d) on %s\n", m.Name(), m.Dim(), d.Name)
	fmt.Printf("test triples ranked   %d\n", lp.Triples)
	fmt.Printf("raw MRR               %.4f\n", lp.MRR)
	fmt.Printf("filtered MRR          %.4f\n", lp.FilteredMRR)
	fmt.Printf("Hits@1 / @3 / @10     %.3f / %.3f / %.3f\n", lp.Hits1, lp.Hits3, lp.Hits10)
	fmt.Printf("filtered mean rank    %.1f\n", lp.MR)
	fmt.Printf("TCA                   %.1f%%\n", tc.Accuracy)
	fmt.Printf("ROC-AUC               %.3f\n", auc)
	if *detailed {
		fmt.Printf("head/tail MRR         %.4f / %.4f\n", det.Overall.HeadMRR, det.Overall.TailMRR)
		for _, cat := range []eval.RelationCategory{eval.Cat1To1, eval.Cat1ToN, eval.CatNTo1, eval.CatNToN} {
			if r, ok := det.ByCategory[cat]; ok {
				fmt.Printf("  %-4s (%d triples)    %.4f / %.4f\n", cat, r.Triples, r.HeadMRR, r.TailMRR)
			}
		}
	}
}
