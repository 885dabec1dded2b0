package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"ctxres/internal/ctx"
	"ctxres/internal/daemon"
	"ctxres/internal/daemon/faultconn"
	"ctxres/internal/middleware"
	"ctxres/internal/strategy"
	"ctxres/internal/telemetry"
)

// The router serves through the daemon's transport, so it carries the
// shard daemon's hardening. These tests pin each piece at the router.

// serveRouterOn starts a router over shards on a listener built by wrap.
func serveRouterOn(t *testing.T, wrap func(net.Listener) net.Listener, opt RouterOptions, opts ...daemon.Option) *Router {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if opt.Timeout == 0 {
		opt.Timeout = 5 * time.Second
	}
	r, err := ServeRouterListener(wrap(ln), opt, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Shutdown)
	return r
}

func plainListener(ln net.Listener) net.Listener { return ln }

// readClosed reads from conn and fails unless the server closed it: a
// read deadline firing means the server left the connection open.
func readClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := conn.Read(make([]byte, 64))
	var ne net.Error
	if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("read = %v, want a server-side close", err)
	}
}

func TestRouterAcceptSurvivesTransientErrors(t *testing.T) {
	shard := startShard(t)
	reg := telemetry.NewRegistry()
	r := serveRouterOn(t, func(ln net.Listener) net.Listener {
		return faultconn.NewListener(ln, faultconn.WithTransientAcceptErrors(3))
	}, RouterOptions{Shards: []string{shard.Addr().String()}, Telemetry: reg},
		daemon.WithAcceptBackoff(time.Millisecond, 10*time.Millisecond))

	cl, err := daemon.DialOptions(r.Addr().String(), daemon.ClientOptions{Timeout: 5 * time.Second, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Submit(srcLoc("a1", "src", 1, t0, 0)); err != nil {
		t.Fatalf("submit after transient accept errors: %v", err)
	}
	// The routed request is visible in the router's own request metrics.
	hs, ok := reg.Snapshot().Histograms[`ctxres_request_seconds{op="submit"}`]
	if !ok || hs.Count != 1 {
		t.Fatalf("router ctxres_request_seconds{op=\"submit\"} = %+v (present %v), want count 1", hs, ok)
	}
}

func TestRouterReapsIdleConnections(t *testing.T) {
	shard := startShard(t)
	r := serveRouterOn(t, plainListener, RouterOptions{Shards: []string{shard.Addr().String()}},
		daemon.WithIdleTimeout(50*time.Millisecond))
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	readClosed(t, conn)
}

func TestRouterShutdownDrainsInFlightSubmit(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	mw := middleware.New(routerChecker(), strategy.NewDropBad(),
		middleware.WithHooks(middleware.Hooks{
			OnAccept: func(*ctx.Context) {
				started <- struct{}{}
				<-release
			},
		}))
	shard, err := daemon.Serve("127.0.0.1:0", mw, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Shutdown()
	r := serveRouterOn(t, plainListener, RouterOptions{Shards: []string{shard.Addr().String()}},
		daemon.WithDrainTimeout(5*time.Second))

	cl, err := daemon.DialOptions(r.Addr().String(), daemon.ClientOptions{
		Timeout:     10 * time.Second,
		MaxAttempts: 1, // a dropped response must surface as an error
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	submitErr := make(chan error, 1)
	go func() {
		_, err := cl.Submit(srcLoc("a1", "src", 1, t0, 0))
		submitErr <- err
	}()

	<-started // the routed submit is in flight at the shard
	shutdownDone := make(chan struct{})
	go func() {
		r.Shutdown()
		close(shutdownDone)
	}()
	// Shutdown closes the listener before it drains: once dials fail,
	// the drain is under way with the submit still in flight.
	for deadline := time.Now().Add(5 * time.Second); ; {
		c, err := net.Dial("tcp", r.Addr().String())
		if err != nil {
			break
		}
		_ = c.Close()
		if time.Now().After(deadline) {
			t.Fatal("router kept accepting after Shutdown")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	if err := <-submitErr; err != nil {
		t.Fatalf("in-flight routed submit dropped during shutdown: %v", err)
	}
	select {
	case <-shutdownDone:
	case <-time.After(10 * time.Second):
		t.Fatal("router shutdown never completed")
	}
}

func TestRouterCorruptFrameGetsBadRequest(t *testing.T) {
	shard := startShard(t)
	r := serveRouterOn(t, plainListener, RouterOptions{Shards: []string{shard.Addr().String()}})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	if _, err := conn.Write([]byte(`{"op":"hello","format":"binary"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("hello ack: %v", err)
	}

	frame, err := daemon.AppendBinFrame(nil, []byte(`{"op":"ping"}`))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(frame[4:8], binary.LittleEndian.Uint32(frame[4:8])^1)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte // len | crc32c
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatalf("read response to a corrupt frame: %v", err)
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr[:4]))
	if _, err := io.ReadFull(br, body); err != nil {
		t.Fatal(err)
	}
	var resp daemon.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != daemon.CodeBadRequest {
		t.Fatalf("response = %+v, want %s", resp, daemon.CodeBadRequest)
	}
}

func TestRouterMaxConnsAnswersBusy(t *testing.T) {
	shard := startShard(t)
	r := serveRouterOn(t, plainListener, RouterOptions{Shards: []string{shard.Addr().String()}},
		daemon.WithMaxConns(1))
	first, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	_ = first.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(first)
	if _, err := first.Write([]byte(`{"op":"ping"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatal(err) // the first connection is serving; the cap is occupied
	}

	second, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	_ = second.SetDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(second).ReadBytes('\n')
	if err != nil {
		t.Fatalf("read busy response: %v", err)
	}
	var resp daemon.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != daemon.CodeBusy {
		t.Fatalf("over-cap response = %+v, want %s", resp, daemon.CodeBusy)
	}
}
