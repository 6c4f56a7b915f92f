//go:build race

package phylo

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool deliberately drops a share of the
// released session buffers, so allocation pins cannot hold.
const raceEnabled = true
