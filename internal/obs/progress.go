package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress renders a single self-overwriting status line for long runs:
//
//	7/24 cells · facebook/Sporadic/ConRep · schedule-build done · 41s elapsed · ETA 1m37s · heap 1.2 GB
//
// It redraws on every phase record and cell completion, plus a once-a-second
// ticker so the elapsed/heap readings stay live during a 100-second cell.
// All methods are safe for concurrent use and safe on a nil receiver.
type Progress struct {
	w     io.Writer
	watch Watch

	mu     sync.Mutex
	total  int
	done   int
	phase  string
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewProgress starts a progress line writing to w (normally os.Stderr).
// total may be 0 and set later via SetTotal when the cell count is not yet
// known.
func NewProgress(w io.Writer, total int) *Progress {
	p := &Progress{w: w, watch: StartWatch(), total: total, stop: make(chan struct{})}
	p.wg.Add(1)
	go p.tick()
	return p
}

func (p *Progress) tick() {
	defer p.wg.Done()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.draw()
		}
	}
}

// SetTotal sets the run's cell count.
func (p *Progress) SetTotal(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.total = n
	p.mu.Unlock()
	p.draw()
}

// SetPhase updates the activity label.
func (p *Progress) SetPhase(label string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.phase = label
	p.mu.Unlock()
	p.draw()
}

// CellDone advances the completed-cell count.
func (p *Progress) CellDone() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done++
	p.mu.Unlock()
	p.draw()
}

// Stop ends the ticker goroutine, prints the final state, and terminates
// the line with a newline so subsequent output starts clean. Idempotent.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.stop)
	p.wg.Wait()
	fmt.Fprintf(p.w, "\r\x1b[2K%s\n", p.line(heapMB()))
}

// draw repaints the line in place ("\r" + erase-to-EOL).
func (p *Progress) draw() {
	heap := heapMB() // outside the lock: ReadMemStats stops the world briefly
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	line := p.lineLocked(heap)
	w := p.w
	p.mu.Unlock()
	fmt.Fprintf(w, "\r\x1b[2K%s", line)
}

func (p *Progress) line(heap float64) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lineLocked(heap)
}

// lineLocked formats the status line. Caller holds p.mu.
func (p *Progress) lineLocked(heap float64) string {
	elapsed := p.watch.Elapsed().Round(time.Second)
	s := fmt.Sprintf("%d/%d cells", p.done, p.total)
	if p.phase != "" {
		s += " · " + p.phase
	}
	s += fmt.Sprintf(" · %s elapsed", elapsed)
	if p.done > 0 && p.done < p.total {
		remaining := time.Duration(float64(p.watch.Elapsed()) / float64(p.done) * float64(p.total-p.done))
		s += fmt.Sprintf(" · ETA %s", remaining.Round(time.Second))
	}
	s += fmt.Sprintf(" · heap %.1f MB", heap)
	return s
}
