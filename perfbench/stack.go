package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/store"
)

// stack is the three serving tiers assembled in one process from their
// public constructors, with the wiring of cmd/chkpt-store,
// cmd/chkpt-serve -store and cmd/chkpt-lb: FileStore → StoreServer on
// a loopback listener → RemoteStore → service replicas on loopback
// listeners → Forwarder on a loopback listener. With a recorder every
// tier is wrapped from outside (see trace.go).
type stack struct {
	dir    string
	fs     *store.FileStore
	remote *cluster.RemoteStore
	svcSt  store.Store // what the replicas mount: the RemoteStore, or its traced wrapper
	eng    *engine.Engine
	rec    *recorder // nil in the untraced run

	listeners []*listener
	replicas  []*service.Server
	transport *http.Transport // the RemoteStore's
	client    *http.Client    // the benchmark's own client
	// clientConns is how many connections (and closed-loop clients) the
	// benchmark client uses.
	clientConns int
}

type listener struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

var stackSeq int

// stackCacheBudget is the engine's cache budget. engine.Default() has
// 256 MiB, which a sweep job's traces (about 0.5 MiB each) fill only
// after some 500 jobs: the peak RSS then grew with the jobs a run got
// through, that is with the host's speed. 8 MiB is full after the
// sweep warm-up, so the window runs at the cache's steady state; it
// still holds the shared planners and both clients' jobs in flight.
const stackCacheBudget = 16 << 20

// newStack opens a fresh FileStore under dir and starts the store tier.
// conns bounds the benchmark client's connections.
func newStack(dir string, rec *recorder, conns int) (*stack, error) {
	stackSeq++
	dir = filepath.Join(dir, "stack-"+strconv.Itoa(os.Getpid())+"-"+strconv.Itoa(stackSeq))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	fs, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	s := &stack{
		dir: dir,
		fs:  fs,
		// A fresh engine per stack, so each set-up starts cold and the
		// warm-up fills only its own cache.
		eng:         engine.New(engine.Config{Cache: engine.NewCache(stackCacheBudget)}),
		rec:         rec,
		clientConns: conns,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	var be cluster.Backend = fs
	if rec != nil {
		be = &tracedStore{inner: fs, layer: layerFileStore, rec: rec}
	}
	sv := cluster.NewStoreServer(cluster.ServerConfig{Backend: be})
	var h http.Handler = sv.Handler()
	if rec != nil {
		h = traceHandler(rec, layerStoreSrv, h, true)
	}
	storeURL, err := s.listen(h)
	if err != nil {
		s.close()
		return nil, err
	}
	s.transport = &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}
	s.remote, err = cluster.NewRemote(cluster.RemoteConfig{
		BaseURL: storeURL,
		Client:  &http.Client{Transport: s.transport},
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.svcSt = s.remote
	if rec != nil {
		s.svcSt = &tracedStore{inner: s.remote, layer: layerStore, rec: rec}
	}
	return s, nil
}

// listen serves h on a fresh loopback listener.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	l := &listener{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln)
	}()
	s.listeners = append(s.listeners, l)
	return l.url, nil
}

// addReplica starts one chkpt-serve replica over the shared store.
func (s *stack) addReplica() (string, *service.Server, error) {
	srv := service.New(service.Config{
		Engine:    s.eng,
		Store:     s.svcSt,
		Logger:    slog.New(slog.DiscardHandler),
		ReplicaID: fmt.Sprintf("bench-replica-%d", len(s.replicas)),
		// A small /v1/debug/traces ring, so that the hundreds of cold
		// replicas of replay-recover fit in one process. The ring size
		// does not change what recording a span costs.
		TraceCapacity: 64,
	})
	var h http.Handler = srv.Handler()
	if s.rec != nil {
		h = traceHandler(s.rec, layerServe, h, false)
	}
	url, err := s.listen(h)
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	s.replicas = append(s.replicas, srv)
	return url, srv, nil
}

// addLB starts one chkpt-lb forwarder over the given replicas.
func (s *stack) addLB(backends []string) (string, error) {
	fw, err := cluster.NewForwarder(backends, nil)
	if err != nil {
		return "", err
	}
	var h http.Handler = fw
	if s.rec != nil {
		h = traceHandler(s.rec, layerLB, h, false)
	}
	return s.listen(h)
}

// settle waits until the sweep runners have released every job claim
// they took: a job's stream ends once its last cell is durable, a
// moment before its runner releases the claim. It returns after five
// seconds regardless.
func (s *stack) settle() {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		st := s.fs.Stats()
		if st.LeaseReleased >= st.LeaseAcquired {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops every listener (and waits for its serve loop), the
// replicas' background work and the store, then removes the directory.
func (s *stack) close() {
	for i := len(s.listeners) - 1; i >= 0; i-- {
		l := s.listeners[i]
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := l.srv.Shutdown(ctx); err != nil {
			_ = l.srv.Close()
		}
		cancel()
		<-l.done
	}
	for _, r := range s.replicas {
		r.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	// The forwarder relays through the default transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if s.remote != nil {
		_ = s.remote.Close()
	}
	if s.fs != nil {
		if err := s.fs.Close(); err != nil && !errors.Is(err, store.ErrClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: close store:", err)
		}
	}
	_ = os.RemoveAll(s.dir)
}
