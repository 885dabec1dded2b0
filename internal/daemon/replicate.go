package daemon

// Replication serving path. The daemon stays transport: the actual
// shipping machinery (journal tap, catch-up from disk, per-follower
// queues) lives in internal/cluster, injected here as a
// ReplicationSource so the packages compose without an import cycle
// (cluster imports daemon, never the reverse).

import (
	"bufio"
	"encoding/json"
	"errors"
	"sync"
	"time"
)

// ReplicationSource streams journal records to one follower connection.
// Implemented by cluster.Shipper.
type ReplicationSource interface {
	// ServeFeed streams every frame with sequence > fromSeq through send,
	// in order, until send reports a write failure, stop closes, or the
	// feed fails (e.g. the follower fell behind the shipper's queue — the
	// follower redials and resumes from its local position). send must be
	// called from a single goroutine.
	ServeFeed(fromSeq uint64, send func(ReplFrame) bool, stop <-chan struct{}) error
}

// AckSink receives follower position reports read off a live
// replication stream. A ReplicationSource that also implements AckSink
// (cluster.Shipper does) gets every OpReplAck frame's FromSeq — the
// follower's durable position — which is what renews the leader's
// self-fencing lease.
type AckSink interface {
	FollowerAck(fromSeq uint64)
}

// WithReplicationSource enables the OpReplicate op, serving replication
// streams from src. Without it the op is refused.
func WithReplicationSource(src ReplicationSource) Option {
	return func(o *options) { o.replSource = src }
}

// handleReplicate validates an OpReplicate request; the streaming itself
// starts after the ack is written, taking over the connection's serving
// goroutine (see serverConn.Serve).
func (s *Server) handleReplicate(req Request) Response {
	if s.opt.replSource == nil {
		return errResponse(errors.New("replicate: server has no replication source"))
	}
	return Response{OK: true}
}

// streamReplication runs a replication stream on the connection's
// serving goroutine. It returns when the follower disconnects, the
// server shuts down, or the feed fails; the caller closes the
// connection either way.
//
// The read side is handed to an ack-reader goroutine: followers send
// OpReplAck position reports upstream on the same connection, and those
// are what renew the leader's self-fencing lease. The reader owns the
// connection's reader from here on (the serving loop never reads again)
// and its death — follower disconnect, malformed frame — stops the feed,
// so a follower that stops acking also stops consuming shipper queue
// space.
func (s *Server) streamReplication(c *Conn, fromSeq uint64) {
	// The stream idles legitimately between acks; the per-request idle
	// deadline set by the serving loop must not reap it.
	_ = c.conn.SetReadDeadline(time.Time{})

	// stop merges "server shutting down" with "ack reader died" for
	// ServeFeed, which takes a single stop channel.
	stop := make(chan struct{})
	var once sync.Once
	closeStop := func() { once.Do(func() { close(stop) }) }
	go func() {
		select {
		case <-s.t.stop:
			closeStop()
		case <-stop:
		}
	}()

	sink, _ := s.opt.replSource.(AckSink)
	br, binary := c.br, c.binary
	go func() {
		defer closeStop()
		// The reader outlives streamReplication by up to one read (it
		// unblocks when the caller closes the connection), so it uses its
		// own buffer rather than the pooled one the serving loop returns.
		var buf []byte
		for {
			var payload []byte
			var err error
			if binary {
				payload, err = readBinFrame(br, &buf)
			} else {
				payload, err = readLine(br, MaxLineBytes, &buf)
			}
			if err != nil {
				return
			}
			if len(payload) == 0 {
				continue
			}
			var ack Request
			if json.Unmarshal(payload, &ack) != nil || ack.Op != OpReplAck {
				// Anything else on a replication stream is a protocol
				// violation; drop the stream so the follower redials clean.
				return
			}
			if sink != nil {
				sink.FollowerAck(ack.FromSeq)
			}
		}
	}()

	send := func(f ReplFrame) bool {
		frame := f
		return c.Push(Response{OK: true, Push: true, Repl: &frame})
	}
	_ = s.opt.replSource.ServeFeed(fromSeq, send, stop)
	closeStop()
}

// Exported wire-framing facades for internal/cluster: the follower
// speaks the daemon's exact framing (hello negotiation included) without
// reimplementing it.

// AppendBinFrame appends one binary frame (len|crc32c|payload) to dst.
func AppendBinFrame(dst, payload []byte) ([]byte, error) {
	return appendBinFrame(dst, payload)
}

// ReadBinFrame reads one binary frame into buf (grown as needed).
func ReadBinFrame(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	return readBinFrame(br, buf)
}

// ReadLineFrame reads one newline-terminated line-JSON frame.
func ReadLineFrame(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	return readLine(br, MaxLineBytes, buf)
}

// ErrResponse builds a typed error response; the router gateway answers
// protocol trouble with the same taxonomy a shard daemon would.
func ErrResponse(code Code, err error) Response {
	return errResponseCode(code, err)
}
