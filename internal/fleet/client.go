package fleet

import (
	"fmt"
	"sync"
	"time"

	"edgeis/internal/metrics"
	"edgeis/internal/transport"
)

// Config configures a FleetClient.
type Config struct {
	// Addrs is the fleet's replica address list. Order matters only for
	// determinism of iteration; placement hashes over the values. Every
	// client and replica should share the same list.
	Addrs []string
	// SessionKey is the cross-replica session identity carried by the
	// resume handshake. Required: without it a surviving replica has no
	// name under which to adopt the session.
	SessionKey string
	// DialTimeout bounds each dial and the resume handshake (default 2s).
	DialTimeout time.Duration
	// DialAttempts and DialBackoff parameterize transport.DialRetry per
	// replica: attempts tries with exponential backoff starting at
	// DialBackoff (defaults 3 and 50ms). A replica that stays unreachable
	// through the retry budget is marked down and placement moves on.
	DialAttempts int
	DialBackoff  time.Duration
	// Policy decides which alive replica serves the session (default
	// Rendezvous{}).
	Policy Policy
	// ClientOptions are extra per-connection transport options (send queue
	// depth, write timeout). The resume option is appended by the fleet
	// client itself.
	ClientOptions []transport.ClientOption
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.DialAttempts < 1 {
		cfg.DialAttempts = 3
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = 50 * time.Millisecond
	}
	if cfg.Policy == nil {
		cfg.Policy = Rendezvous{}
	}
	return cfg
}

// Stats is the fleet client's frame accounting — FleetClient.Ledger with the
// buckets named at this boundary (Sent is offered, Delivered served,
// ConnLost dropped) — plus placement state. After Close (or terminal
// failure) the ledger passes Check(0); mid-run there are legitimately
// in-flight frames in no bucket.
//
// Delivered are results handed to the consumer of Results. Migrated are
// frames accepted for sending but unresolved when their connection died and
// the session moved to another replica — the in-flight loss window of a
// migration, bounded and accounted rather than silent.
// ConnLost are frames unresolved on the final connection (terminal failure
// or user Close), the non-migration remainder.
type Stats struct {
	Sent      int
	Delivered int
	Rejected  int
	Shed      int
	Migrated  int
	ConnLost  int
	// Failovers counts completed replica switches; Down counts replicas
	// this client has written off. Replica is the current (or last)
	// serving address.
	Failovers int
	Down      int
	Replica   string
}

// FleetClient is a transport.Client over a replica fleet: it resolves
// placement for its session, pumps results from the serving replica, and
// on connection loss fails the session over — marks the replica down,
// re-places among survivors, and redials with the resume handshake so the
// target adopts the session (cold cache, forced keyframe on the next
// frame). Frames lost in flight across a failover are counted Migrated,
// never resent: results are real-time, a stale frame's answer is worthless
// by the time the new replica could produce it.
type FleetClient struct {
	cfg     Config
	results chan *transport.ResultMsg
	done    chan struct{}
	wg      sync.WaitGroup

	closeOnce sync.Once

	mu      sync.Mutex
	cur     *transport.Client // live connection, nil once folded
	curAddr string
	down    map[string]bool
	epoch   int64 // highest delivered frame index, carried by resume
	lastErr error

	// led is the settled accounting of connections that have ended; while
	// cur is live its own ledger is added on top (ledgerLocked). handed is
	// how many of cur's results the pump has handed to Results: what cur
	// delivered beyond that never reached this client's consumer.
	led       metrics.Ledger
	handed    int
	failovers int
}

// DialFleet connects a session to its placed replica. Replicas that refuse
// the initial dial through the retry budget are marked down and placement
// falls through to the survivors; only a fully unreachable fleet fails.
func DialFleet(cfg Config) (*FleetClient, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("fleet: no replica addresses")
	}
	if cfg.SessionKey == "" {
		return nil, fmt.Errorf("fleet: session key required")
	}
	fc := &FleetClient{
		cfg:     cfg.withDefaults(),
		results: make(chan *transport.ResultMsg, 16),
		done:    make(chan struct{}),
		down:    make(map[string]bool, len(cfg.Addrs)),
		epoch:   -1,
	}
	c, addr, err := fc.dialPlaced()
	if err != nil {
		return nil, err
	}
	fc.cur, fc.curAddr = c, addr
	fc.wg.Add(1)
	go fc.run()
	return fc, nil
}

// dialPlaced resolves placement among alive replicas and dials until one
// answers, marking refusers down. Callers hold no lock.
func (fc *FleetClient) dialPlaced() (*transport.Client, string, error) {
	for {
		fc.mu.Lock()
		alive := fc.aliveLocked()
		epoch := fc.epoch
		fc.mu.Unlock()
		if len(alive) == 0 {
			return nil, "", fmt.Errorf("fleet: session %s: all %d replicas down",
				fc.cfg.SessionKey, len(fc.cfg.Addrs))
		}
		addr := fc.cfg.Policy.Pick(fc.cfg.SessionKey, alive)
		opts := append(append([]transport.ClientOption(nil), fc.cfg.ClientOptions...),
			transport.WithResume(fc.cfg.SessionKey, epoch))
		c, err := transport.DialRetry(addr, fc.cfg.DialTimeout,
			fc.cfg.DialAttempts, fc.cfg.DialBackoff, opts...)
		if err != nil {
			fc.mu.Lock()
			fc.down[addr] = true
			fc.mu.Unlock()
			continue
		}
		return c, addr, nil
	}
}

// aliveLocked returns the not-yet-written-off replicas in configured
// order. Callers hold fc.mu.
func (fc *FleetClient) aliveLocked() []string {
	alive := make([]string, 0, len(fc.cfg.Addrs))
	for _, a := range fc.cfg.Addrs {
		if !fc.down[a] {
			alive = append(alive, a)
		}
	}
	return alive
}

// run pumps results from the serving connection into the fleet results
// channel, failing over when the connection dies. It owns the channel
// close: consumers ranging over Results observe every delivered result
// across all connections, then the close.
func (fc *FleetClient) run() {
	defer fc.wg.Done()
	defer close(fc.results)
	for {
		fc.mu.Lock()
		cur := fc.cur
		fc.mu.Unlock()
		if cur == nil {
			return
		}
		for res := range cur.Results() {
			fc.mu.Lock()
			if int64(res.FrameIndex) > fc.epoch {
				fc.epoch = int64(res.FrameIndex)
			}
			// Counted before the hand-over starts and taken back if the
			// consumer is gone, as transport.Client does one hop down.
			fc.handed++
			fc.mu.Unlock()
			select {
			case fc.results <- res:
			case <-fc.done:
				fc.mu.Lock()
				fc.handed--
				fc.mu.Unlock()
				return
			}
		}
		// Results closed: the connection is dead and its counters are
		// settled (the client settles ConnLost before closing the
		// channel). Unless the user closed us, migrate.
		select {
		case <-fc.done:
			return
		default:
		}
		if !fc.failover() {
			return
		}
	}
}

// failover moves the session to a surviving replica. It returns false when
// the fleet is exhausted (terminal: remaining frames fold into ConnLost
// and Err reports the failure) or the client was closed mid-migration.
func (fc *FleetClient) failover() bool {
	fc.mu.Lock()
	fc.down[fc.curAddr] = true
	fc.mu.Unlock()
	c, addr, err := fc.dialPlaced()
	if err != nil {
		fc.mu.Lock()
		fc.foldLocked(false)
		if fc.lastErr == nil {
			fc.lastErr = err
		}
		fc.mu.Unlock()
		return false
	}
	fc.mu.Lock()
	select {
	case <-fc.done:
		// Closed while redialing: the new connection never serves. Close
		// folds the old one.
		fc.mu.Unlock()
		_ = c.Close()
		return false
	default:
	}
	old := fc.cur
	fc.foldLocked(true)
	fc.failovers++
	fc.cur, fc.curAddr = c, addr
	fc.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	return true
}

// curLedgerLocked is the serving connection's ledger as this client's
// consumer sees it: results the connection delivered that the pump has not
// handed on are pending again. Callers hold fc.mu with fc.cur non-nil.
func (fc *FleetClient) curLedgerLocked() metrics.Ledger {
	l := fc.cur.Ledger()
	l.Unserve(l.Served() - fc.handed)
	return l
}

// foldLocked settles the current connection's ledger into the fleet totals
// and retires it. migrated classifies its unresolved frames: lost to a
// completed migration, or terminally ConnLost. Idempotent per connection
// (cur is nil once folded); callers hold fc.mu and must only call after the
// connection's read loop and the pump's range over its results have ended.
func (fc *FleetClient) foldLocked(migrated bool) {
	if fc.cur == nil {
		return
	}
	l := fc.curLedgerLocked()
	l.Settle()
	if migrated {
		l.MigrateDropped()
	}
	fc.led.Add(l)
	fc.cur, fc.handed = nil, 0
}

// Send queues a frame on the serving connection. False means the frame is
// not going anywhere — queue full, connection settled, or mid-failover —
// and the caller accounts it client-side, exactly as with a single
// transport.Client.
func (fc *FleetClient) Send(f *transport.FrameMsg) bool {
	fc.mu.Lock()
	cur := fc.cur
	fc.mu.Unlock()
	if cur == nil {
		return false
	}
	return cur.Send(f)
}

// Results delivers inference results across every connection the session
// lives on; the channel closes when the client is closed or the fleet is
// exhausted.
func (fc *FleetClient) Results() <-chan *transport.ResultMsg { return fc.results }

// Err returns the terminal error, if any (all replicas down).
func (fc *FleetClient) Err() error {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.lastErr
}

// Ledger snapshots the client-lifetime accounting: connections already
// folded plus the live one.
func (fc *FleetClient) Ledger() metrics.Ledger {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.ledgerLocked()
}

func (fc *FleetClient) ledgerLocked() metrics.Ledger {
	l := fc.led
	if fc.cur != nil {
		l.Add(fc.curLedgerLocked())
	}
	return l
}

// Stats snapshots the fleet accounting and placement state.
func (fc *FleetClient) Stats() Stats {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	l := fc.ledgerLocked()
	return Stats{
		Sent:      l.Offered(),
		Delivered: l.Served(),
		Rejected:  l.Rejected(),
		Shed:      l.Shed(),
		Migrated:  l.Migrated(),
		ConnLost:  l.Dropped(),
		Failovers: fc.failovers,
		Down:      len(fc.down),
		Replica:   fc.curAddr,
	}
}

// Close shuts the session down: the serving connection closes (settling
// its counters), the pump exits, and unresolved frames fold into ConnLost.
// Safe to call more than once.
func (fc *FleetClient) Close() error {
	fc.closeOnce.Do(func() {
		close(fc.done)
		fc.mu.Lock()
		cur := fc.cur
		fc.mu.Unlock()
		if cur != nil {
			_ = cur.Close()
		}
		fc.wg.Wait()
		fc.mu.Lock()
		fc.foldLocked(false)
		fc.mu.Unlock()
	})
	return nil
}
