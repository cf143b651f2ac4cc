package engine

import (
	"slices"
	"strings"
	"testing"
)

func TestNewPartitionEven(t *testing.T) {
	part, err := NewPartition(4, 17, 14)
	if err != nil {
		t.Fatal(err)
	}
	wantLo := []int{1, 4, 7, 10}
	for r := 0; r < 4; r++ {
		if part.Lo[r] != wantLo[r] || part.Planes[r] != 3 {
			t.Errorf("rank %d: lo=%d planes=%d, want lo=%d planes=3",
				r, part.Lo[r], part.Planes[r], wantLo[r])
		}
		if part.LocalNz(r) != 5 {
			t.Errorf("rank %d: LocalNz=%d, want 5 (slab+2 ghosts)", r, part.LocalNz(r))
		}
	}
	if part.NN() != 17*17 {
		t.Errorf("NN=%d", part.NN())
	}
}

func TestNewPartitionUneven(t *testing.T) {
	// 15 interior planes over 8 ranks: the first 7 ranks get 2, the
	// last gets 1; slabs tile the interior contiguously from plane 1.
	part, err := NewPartition(8, 17, 17)
	if err != nil {
		t.Fatal(err)
	}
	next := 1
	total := 0
	for r := 0; r < 8; r++ {
		if part.Lo[r] != next {
			t.Errorf("rank %d: lo=%d, want %d", r, part.Lo[r], next)
		}
		want := 2
		if r == 7 {
			want = 1
		}
		if part.Planes[r] != want {
			t.Errorf("rank %d: planes=%d, want %d", r, part.Planes[r], want)
		}
		next += part.Planes[r]
		total += part.Planes[r]
	}
	if total != 15 || next != 16 {
		t.Errorf("slabs cover %d planes ending at %d", total, next)
	}
}

func TestNewPartitionTooManyRanks(t *testing.T) {
	_, err := NewPartition(8, 5, 5)
	if err == nil || !strings.Contains(err.Error(), "cannot partition") {
		t.Fatalf("err = %v", err)
	}
}

// TestPartitionLayout: Scatter writes each rank's slab, ghosts
// included, from the global array; Gather reads back only the owned
// planes.
func TestPartitionLayout(t *testing.T) {
	const n, nz = 2, 7
	nn := n * n
	part, err := NewPartition(3, n, nz)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(part.Lo, []int{1, 3, 5}) || part.SlabWords(1) != 4*nn || part.OwnedWords(2) != nn {
		t.Fatalf("partition %+v", part)
	}
	f := newRingFabric(t, 3)
	g := make([]float64, nz*nn)
	for i := range g {
		g[i] = float64(i + 1)
	}
	if err := part.Scatter(f, 1, g); err != nil {
		t.Fatal(err)
	}
	locals := make([][]float64, part.P)
	for r := range locals {
		if locals[r], err = f.nodes[r].ReadWords(1, 0, part.SlabWords(r)); err != nil {
			t.Fatal(err)
		}
		lo := (part.Lo[r] - 1) * nn
		if !slices.Equal(locals[r], g[lo:lo+part.SlabWords(r)]) {
			t.Errorf("rank %d slab %v, want %v", r, locals[r], g[lo:lo+part.SlabWords(r)])
		}
	}
	back := make([]float64, nz*nn)
	if err := part.Gather(f, 1, back); err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(g)
	clear(want[:nn])
	clear(want[(nz-1)*nn:])
	if !slices.Equal(back, want) {
		t.Errorf("gathered %v, want %v (boundary planes untouched)", back, want)
	}

	if got := part.RefillWords([]int{2}, false, 2); !slices.Equal(got, []int64{0, 0, 2 * 3 * int64(nn)}) {
		t.Errorf("spare refill words %v", got)
	}
	if got := part.RefillWords([]int{2}, true, 1); !slices.Equal(got, []int64{4 * int64(nn), 4 * int64(nn), 3 * int64(nn)}) {
		t.Errorf("shrink refill words %v", got)
	}
}
