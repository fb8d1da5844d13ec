// Time-evolving graphs: model a Wikipedia-style link graph whose edges are
// added and removed over discrete time-frames (the paper's Section IV
// motivation), store it as a differential TCSR, and answer historical
// queries — "was this link live at time t?", "what did this page link to
// at time t?" — directly from the compressed structure.
package main

import (
	"fmt"
	"log"

	"csrgraph"
)

func main() {
	const (
		pages  = 5000
		base   = 30000 // links existing at frame 0
		churn  = 800   // link edits per frame
		frames = 30
		procs  = 4
	)

	events, err := csrgraph.GenerateTemporal(pages, base, churn, frames, 7, procs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("edit stream: %d link events across %d frames\n", len(events), frames)

	tg, err := csrgraph.BuildTemporal(events, frames, csrgraph.WithProcs(procs))
	if err != nil {
		log.Fatal(err)
	}

	// Bit-packed differential storage vs naive per-frame snapshots.
	fmt.Printf("bit-packed differential TCSR: %d KB; uncompressed full snapshots would be %d KB (%.1fx larger)\n",
		tg.SizeBytes()/1024, tg.FullSnapshotSizeBytes()/1024,
		float64(tg.FullSnapshotSizeBytes())/float64(tg.SizeBytes()))
	// A checkpoint every 8 frames bounds the frames each query folds.
	ct, err := tg.Checkpoint(8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with a checkpoint every 8 frames: %d KB\n", ct.SizeBytes()/1024)

	// Track one page's outgoing links through history.
	page := csrgraph.NodeID(0)
	for _, t := range []int{0, frames / 2, frames - 1} {
		links := ct.ActiveNeighbors(page, t)
		fmt.Printf("page %d at frame %2d: %d outgoing links\n", page, t, len(links))
	}

	// Point-in-time existence: pick a link event and watch it flip.
	ev := events[len(events)/2]
	fmt.Printf("link %d->%d toggled at frame %d:\n", ev.U, ev.V, ev.T)
	for t := 0; t < frames; t += frames / 6 {
		fmt.Printf("  frame %2d: active=%v\n", t, ct.Active(ev.U, ev.V, t))
	}

	// How much did the graph change overall?
	first, last := tg.Snapshot(0), tg.Snapshot(frames-1)
	fmt.Printf("frame 0 has %d links; frame %d has %d links\n", len(first), frames-1, len(last))
}
