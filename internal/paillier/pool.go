package paillier

import (
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	"runtime"
	"sync"
)

// ErrPoolClosed is returned by Next once the pool has been closed and its
// remaining precomputed terms have been drained.
var ErrPoolClosed = errors.New("paillier: obfuscator pool closed")

// ObfuscatorPool precomputes obfuscation terms r^n mod n² in background
// goroutines so that the encryption hot path is reduced to two modular
// multiplications. This mirrors the "high-performance library" component of
// VF²Boost: the expensive exponentiations are produced off the critical
// path while the producer is otherwise idle. When fast obfuscation is
// enabled on the key, the workers produce the cheap h^x terms instead.
type ObfuscatorPool struct {
	src       ObfuscatorSource
	out       chan poolItem
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	random    io.Reader
}

type poolItem struct {
	rn  *big.Int
	err error
}

// ObfuscatorSource is what a pool draws from: a *PublicKey, or a
// *PrivateKey when the pool belongs to the key owner and should be fed by
// the cheaper CRT path.
type ObfuscatorSource interface {
	Obfuscator(random io.Reader) (*big.Int, error)
}

// NewObfuscatorPool starts `workers` goroutines that keep up to `buffer`
// precomputed obfuscators of src ready. Close the pool with Close when
// done. If random is nil, crypto/rand.Reader is used; workers <= 0
// selects GOMAXPROCS workers.
func NewObfuscatorPool(src ObfuscatorSource, workers, buffer int, random io.Reader) *ObfuscatorPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if buffer <= 0 {
		buffer = 4 * workers
	}
	if random == nil {
		random = rand.Reader
	}
	p := &ObfuscatorPool{
		src:    src,
		out:    make(chan poolItem, buffer),
		stop:   make(chan struct{}),
		random: random,
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *ObfuscatorPool) worker() {
	defer p.wg.Done()
	for {
		rn, err := p.src.Obfuscator(p.random)
		select {
		case p.out <- poolItem{rn: rn, err: err}:
			// An error (a transient RNG failure) is surfaced to one
			// caller, but the worker keeps running: the next draw may
			// well succeed, and silently shrinking the worker set would
			// starve the pool for the rest of the session.
		case <-p.stop:
			return
		}
	}
}

// Next returns a fresh obfuscation term, blocking until one is available.
// After Close it drains any remaining precomputed terms and then returns
// ErrPoolClosed instead of blocking forever.
func (p *ObfuscatorPool) Next() (*big.Int, error) {
	select {
	case item := <-p.out:
		return item.rn, item.err
	case <-p.stop:
		// The pool is closed, but workers may have left finished terms in
		// the buffer; hand those out before reporting closure.
		select {
		case item := <-p.out:
			return item.rn, item.err
		default:
			return nil, ErrPoolClosed
		}
	}
}

// Close stops the background workers. Buffered precomputed terms remain
// drainable through Next; after that, Next returns ErrPoolClosed. Close is
// idempotent.
func (p *ObfuscatorPool) Close() {
	p.closeOnce.Do(func() {
		close(p.stop)
		p.wg.Wait()
	})
}
