package main

import (
	"strings"
	"testing"
	"time"

	"mpj"
)

// TestCountWords runs the example at np=4, within a minute: rank 0's
// merged counts hold every word of the corpus once, whichever rank counted
// its line.
func TestCountWords(t *testing.T) {
	mpj.RegisterType(map[string]int{})
	want := map[string]int{}
	for _, word := range strings.Fields(corpus) {
		want[word]++
	}
	defer time.AfterFunc(time.Minute, func() { panic("the ranks did not finish within a minute") }).Stop()
	if err := mpj.RunLocal(4, func(w *mpj.Comm) error {
		got, err := countWords(w)
		if err != nil || w.Rank() != 0 {
			return err
		}
		total := 0
		for word, n := range got {
			total += n
			if n != want[word] {
				t.Errorf("%q counted %d times, want %d", word, n, want[word])
			}
		}
		if total != len(strings.Fields(corpus)) || len(got) != len(want) {
			t.Errorf("%d words, %d distinct; want %d, %d", total, len(got), len(strings.Fields(corpus)), len(want))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
