package wire

// version_test.go — a peer speaking another frame version is declared
// down at once, from either end of the handshake, and never redialed.

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// legacyVersion is the frame version of the last build that negotiated
// versions per connection.
const legacyVersion = Version - 1

// foreignHello encodes node self's Hello for world key at frame version v.
func foreignHello(self int, key uint64, v byte) []byte {
	buf := AppendFrame(nil, &Header{Type: TypeHello, Xid: key, SrcWorld: int32(self)}, nil)
	buf[lenPrefixSize] = v
	return buf
}

// expectVersionDown waits up to within for PeerDown and checks that it
// carries a *VersionError naming node 1 and version got.
func expectVersionDown(t *testing.T, s *testSink, within time.Duration, got byte) {
	t.Helper()
	select {
	case err := <-s.downCh:
		var ve *VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("PeerDown(%v), want a *VersionError", err)
		}
		if ve.Peer != 1 || ve.Got != got || ve.Want != Version {
			t.Fatalf("VersionError %+v, want peer 1, got %d, want %d", *ve, got, Version)
		}
	case <-time.After(within):
		t.Fatalf("PeerDown did not fire within %v", within)
	}
}

// TestTCPAcceptorRejectsVersionMismatch: a dialer whose Hello is
// authentic (valid node id and world key) but carries the legacy version
// byte is declared down on the spot — the connection is closed
// unanswered, sends to it fail fast, and no dial toward it is attempted.
func TestTCPAcceptorRejectsVersionMismatch(t *testing.T) {
	fd := &countingDialFault{}
	cfg := Config{WorldKey: 11, DialTimeout: time.Second, ReconnectBackoff: time.Millisecond, Fault: fd}
	tr0, s0, _ := fakePeerPair(t, cfg)

	conn, err := net.Dial("tcp", tr0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(foreignHello(1, cfg.WorldKey, legacyVersion)); err != nil {
		t.Fatal(err)
	}
	expectVersionDown(t, s0, cfg.DialTimeout, legacyVersion)

	conn.SetReadDeadline(time.Now().Add(cfg.DialTimeout)) //nolint:errcheck
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("acceptor answered a foreign Hello (read err %v, want EOF)", err)
	}
	var pd *PeerDownError
	if err := tr0.Send(1, &Header{Type: TypeEager}, []byte("x")); !errors.As(err, &pd) {
		t.Fatalf("send to a version-mismatched peer: %v, want *PeerDownError", err)
	}
	time.Sleep(50 * cfg.ReconnectBackoff)
	if n := fd.count(); n != 0 {
		t.Fatalf("%d dials toward a version-mismatched peer, want 0", n)
	}
}

// TestTCPDialerRejectsVersionMismatch: the transport dials a peer whose
// reply Hello carries the legacy version byte. The peer is declared down
// at once, after exactly one dial rather than ReconnectMax of them.
func TestTCPDialerRejectsVersionMismatch(t *testing.T) {
	fd := &countingDialFault{}
	cfg := Config{WorldKey: 12, DialTimeout: time.Second, ReconnectBackoff: time.Millisecond, Fault: fd}
	tr0, s0, ln1 := fakePeerPair(t, cfg)

	if err := tr0.Send(1, &Header{Type: TypeEager, DstWorld: 1}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	conn, err := ln1.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(cfg.DialTimeout)) //nolint:errcheck
	var scratch [maxFrameRead]byte
	var hello Header
	if _, err := readHeader(conn, &hello, &scratch); err != nil || hello.Type != TypeHello {
		t.Fatalf("dialer's Hello: %+v err=%v", hello, err)
	}
	if _, err := conn.Write(foreignHello(1, cfg.WorldKey, legacyVersion)); err != nil {
		t.Fatal(err)
	}
	expectVersionDown(t, s0, cfg.DialTimeout, legacyVersion)

	ln1.(*net.TCPListener).SetDeadline(time.Now().Add(50 * cfg.ReconnectBackoff)) //nolint:errcheck
	if c, err := ln1.Accept(); err == nil {
		c.Close()
		t.Fatal("transport redialed a version-mismatched peer")
	}
	if n := fd.count(); n != 1 {
		t.Fatalf("%d dials, want exactly 1", n)
	}
}
