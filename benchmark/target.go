package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"octocache"
	"octocache/client"
	"octocache/internal/geom"
	"octocache/server"
)

// target is the map under test as the robot loop sees it: the same five
// verbs whether they are method calls on an in-process Map or RPCs to a
// tenant behind the service.
type target interface {
	// Insert hands one scan over; over the service it returns once the
	// scan is on the wire and the window has room.
	Insert(origin geom.Vec3, points []geom.Vec3) error
	// Flush returns once every inserted scan is queryable.
	Flush() error
	// Occupied answers one planner collision check, dst[i] for pts[i].
	Occupied(pts []geom.Vec3, dst []bool) ([]bool, error)
	// CastRays walks one ray per (origin, dir) pair through known and
	// unknown space, dst[i] answering pair i, and reports how many rays
	// failed outright.
	CastRays(origins, dirs []geom.Vec3, maxRange float64, dst []rayAnswer) (answers []rayAnswer, failed int)
	// WriteSnapshot serializes the whole map in the canonical format.
	WriteSnapshot(w io.Writer) (int64, error)
	// Close releases the map and, for a service, stops the server and
	// waits for its goroutines.
	Close() error
}

// mapTarget drives an in-process Map. Flush is free: Map.Insert returns
// with the scan already queryable.
type mapTarget struct{ m *octocache.Map }

func (t mapTarget) Insert(o geom.Vec3, p []geom.Vec3) error { return t.m.Insert(o, p) }
func (t mapTarget) Flush() error                            { return nil }

func (t mapTarget) Occupied(pts []geom.Vec3, dst []bool) ([]bool, error) {
	dst = dst[:0]
	for _, p := range pts {
		dst = append(dst, t.m.Occupied(p))
	}
	return dst, nil
}

func (t mapTarget) CastRays(origins, dirs []geom.Vec3, maxRange float64, dst []rayAnswer) ([]rayAnswer, int) {
	dst = dst[:0]
	for i := range dirs {
		hit, ok := t.m.CastRay(origins[i], dirs[i], maxRange, true)
		dst = append(dst, rayAnswer{hit, ok})
	}
	return dst, 0
}

func (t mapTarget) WriteSnapshot(w io.Writer) (int64, error) { return t.m.WriteTo(w) }
func (t mapTarget) Close() error                             { return t.m.Close() }

// tenantName is the one tenant every service workload creates.
const tenantName = "bench"

// service is an in-process server on loopback TCP plus the goroutine
// that accepts for it.
type service struct {
	srv    *server.Server
	ln     *countingListener
	served chan error
}

// startService builds a server over dataDir ("" for non-durable
// tenants; an existing dir recovers its tenants) and serves it on a
// fresh loopback port.
func startService(dataDir string) (*service, error) {
	srv, err := server.New(server.Config{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{srv: srv, ln: &countingListener{Listener: ln}, served: make(chan error, 1)}
	go func() { s.served <- srv.Serve(s.ln) }()
	return s, nil
}

func (s *service) addr() string { return s.ln.Addr().String() }

// stop closes the server and waits for the accept goroutine to return.
func (s *service) stop() error {
	err := s.srv.Close()
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// svcTarget drives a tenant through one client connection.
type svcTarget struct {
	svc *service
	c   *client.Client
}

// openTenant starts a service over dataDir, connects one client with
// the given insert window (0 = the default), and creates the tenant —
// or attaches to it when create is nil (the restart path: recovery
// already rebuilt it).
func openTenant(dataDir string, window int, create *client.MapOptions) (*svcTarget, error) {
	svc, err := startService(dataDir)
	if err != nil {
		return nil, err
	}
	c, err := client.Dial(svc.addr(), client.Config{Window: window})
	if err != nil {
		svc.stop()
		return nil, err
	}
	if create != nil {
		_, err = c.Create(tenantName, *create)
	} else {
		_, err = c.Attach(tenantName)
	}
	if err != nil {
		c.Close()
		svc.stop()
		return nil, err
	}
	return &svcTarget{svc: svc, c: c}, nil
}

func (t *svcTarget) Insert(o geom.Vec3, p []geom.Vec3) error { return t.c.Insert(o, p) }
func (t *svcTarget) Flush() error                            { return t.c.Flush() }

func (t *svcTarget) Occupied(pts []geom.Vec3, dst []bool) ([]bool, error) {
	set, err := t.c.OccupiedBatch(pts)
	if err != nil {
		return dst[:0], err
	}
	if set.N != len(pts) {
		return dst[:0], fmt.Errorf("occupied batch answered %d of %d points", set.N, len(pts))
	}
	dst = dst[:0]
	for i := range pts {
		dst = append(dst, set.Occupied(i))
	}
	return dst, nil
}

// CastRays issues every ray at once on the one connection, a goroutine
// per ray in flight. The service has no batched ray RPC; the client
// multiplexes requests, and that is how a caller amortizes the round
// trip. Sequential RPCs would measure the machine, not the map: one
// loopback round trip reads 18 us or 43 us depending on whether the other
// vCPU happens to be awake, and stays that way for minutes (the per-RPC
// figure is a per-layer diagnostic). It is called outside the timed
// bulk and cycle phases only: for the probe sheet, and for the fans cast
// after the cycle.
func (t *svcTarget) CastRays(origins, dirs []geom.Vec3, maxRange float64, dst []rayAnswer) ([]rayAnswer, int) {
	if cap(dst) < len(dirs) {
		dst = make([]rayAnswer, len(dirs))
	}
	dst = dst[:len(dirs)]
	var failed atomic.Int64
	var wg sync.WaitGroup
	for i := range dirs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hit, ok, err := t.c.CastRay(origins[i], dirs[i], maxRange, true)
			if err != nil {
				failed.Add(1)
			}
			dst[i] = rayAnswer{hit, ok}
		}()
	}
	wg.Wait()
	return dst, int(failed.Load())
}

func (t *svcTarget) WriteSnapshot(w io.Writer) (int64, error) { return t.c.WriteSnapshot(w) }

func (t *svcTarget) Close() error {
	err := t.c.Close()
	if serr := t.svc.stop(); err == nil {
		err = serr
	}
	return err
}

// newTarget constructs the workload's map: an in-process Map, or a
// server, a connection and a tenant.
func (w *workload) newTarget(dataDir string) (target, error) {
	if !w.service {
		m, err := octocache.New(w.opts)
		if err != nil {
			return nil, err
		}
		return mapTarget{m}, nil
	}
	mo := w.mapOptions()
	return openTenant(dataDir, 0, &mo)
}

// reopen brings the map back from its persisted form: a durable tenant
// from its data dir by a server restart, every other map from its
// serialized bytes by Open. The old target must already be closed.
func (w *workload) reopen(dataDir string, snapshot []byte) (target, error) {
	if !w.durable {
		m, err := octocache.Open(bytes.NewReader(snapshot), w.opts)
		if err != nil {
			return nil, err
		}
		return mapTarget{m}, nil
	}
	return openTenant(dataDir, 0, nil)
}

// countingListener hands the server connections that count their own
// traffic — the only view of the wire the benchmark gets without
// importing the frame codec.
type countingListener struct {
	net.Listener
	wire wireCounters
}

// wireCounters is server-side traffic: what the server read (client
// requests) and wrote (acks, answers, snapshot chunks).
type wireCounters struct {
	readBytes  atomic.Int64
	writeBytes atomic.Int64
	writes     atomic.Int64
}

type wireSnapshot struct{ readBytes, writeBytes, writes int64 }

func (c *wireCounters) snapshot() wireSnapshot {
	return wireSnapshot{c.readBytes.Load(), c.writeBytes.Load(), c.writes.Load()}
}

func (a wireSnapshot) sub(b wireSnapshot) wireSnapshot {
	return wireSnapshot{a.readBytes - b.readBytes, a.writeBytes - b.writeBytes, a.writes - b.writes}
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, wire: &l.wire}, nil
}

type countingConn struct {
	net.Conn
	wire *wireCounters
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.wire.readBytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wire.writeBytes.Add(int64(n))
	c.wire.writes.Add(1)
	return n, err
}
