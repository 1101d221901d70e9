// Distributed word count over OBJECT messaging: rank 0 scatters chunks of
// text as serialized objects, every rank counts words, and rank 0 gathers
// and merges the partial maps — the object-serialization workload the MPJ
// draft introduced OBJECT for ("direct communication of objects via
// object serialization").
//
//	go run ./examples/wordcount -np 4
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"

	"mpj"
)

// corpus is a built-in text so the example runs with no input files.
const corpus = `the quick brown fox jumps over the lazy dog
pack my box with five dozen liquor jugs
how vexingly quick daft zebras jump
the five boxing wizards jump quickly
sphinx of black quartz judge my vow
the dog barks and the fox runs and the dog sleeps`

func wordcountApp(w *mpj.Comm) error {
	merged, err := countWords(w)
	if err != nil || w.Rank() != 0 {
		return err
	}
	type wc struct {
		word string
		n    int
	}
	var all []wc
	for word, n := range merged {
		all = append(all, wc{word, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].word < all[j].word
	})
	fmt.Printf("top words across %d ranks:\n", w.Size())
	for i, e := range all {
		if i == 8 {
			break
		}
		fmt.Printf("  %-10s %d\n", e.word, e.n)
	}
	return nil
}

// countWords counts the corpus's words across the ranks and returns the
// merged counts on rank 0 (nil elsewhere).
func countWords(w *mpj.Comm) (map[string]int, error) {
	rank, size := w.Rank(), w.Size()

	// Rank 0 slices the corpus into one chunk of lines per rank and
	// scatters them as OBJECT elements (strings).
	var chunks []any
	if rank == 0 {
		lines := strings.Split(corpus, "\n")
		chunks = make([]any, size)
		for i := range chunks {
			lo := i * len(lines) / size
			hi := (i + 1) * len(lines) / size
			chunks[i] = strings.Join(lines[lo:hi], "\n")
		}
	}
	myChunk := make([]any, 1)
	if err := w.Scatter(chunks, 0, 1, mpj.OBJECT, myChunk, 0, 1, mpj.OBJECT, 0); err != nil {
		return nil, fmt.Errorf("scatter: %w", err)
	}

	// Count words locally.
	counts := map[string]int{}
	text, _ := myChunk[0].(string)
	for _, word := range strings.Fields(text) {
		counts[strings.ToLower(word)]++
	}

	// Gather the partial maps (maps travel as serialized objects).
	var partials []any
	if rank == 0 {
		partials = make([]any, size)
	}
	if err := w.Gather([]any{counts}, 0, 1, mpj.OBJECT, partials, 0, 1, mpj.OBJECT, 0); err != nil {
		return nil, fmt.Errorf("gather: %w", err)
	}
	if rank != 0 {
		return nil, nil
	}
	merged := map[string]int{}
	for _, p := range partials {
		for word, n := range p.(map[string]int) {
			merged[word] += n
		}
	}
	return merged, nil
}

func main() {
	np := flag.Int("np", 4, "number of processes")
	flag.Parse()

	mpj.RegisterType(map[string]int{})
	mpj.Register("wordcount", wordcountApp)
	if mpj.Main() {
		return
	}
	if err := mpj.RunLocal(*np, wordcountApp); err != nil {
		log.Fatal(err)
	}
}
