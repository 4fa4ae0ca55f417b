package ieee1609

import (
	"errors"
	"testing"

	"autosec/internal/sim"
)

func obu(t *testing.T) (*Credential, *Store) {
	t.Helper()
	_, sub, store := pki(t)
	cred, err := sub.Issue("obu-1", []PSID{PSIDBasicSafety}, 0, sim.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	return cred, store
}

func TestSignVerifyRoundTrip(t *testing.T) {
	cred, store := obu(t)
	msg, err := cred.Sign(PSIDBasicSafety, []byte("BSM: pos=1,2 speed=30"), 5*sim.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := store.Verify(msg, 5*sim.Second+100*sim.Millisecond, VerifyOptions{Freshness: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Subject != "obu-1" {
		t.Fatalf("signer %q", cert.Subject)
	}
}

func TestSignRequiresPermission(t *testing.T) {
	cred, _ := obu(t)
	if _, err := cred.Sign(PSIDInfrastructry, []byte("fake RSU"), 0, false); !errors.Is(err, ErrPSIDDenied) {
		t.Fatalf("err=%v", err)
	}
}

func TestVerifyRejectsTamperedPayload(t *testing.T) {
	cred, store := obu(t)
	msg, _ := cred.Sign(PSIDBasicSafety, []byte("speed=30"), 0, false)
	msg.Payload[0] = 'X'
	if _, err := store.Verify(msg, sim.Second, VerifyOptions{}); !errors.Is(err, ErrMsgTampered) {
		t.Fatalf("err=%v", err)
	}
}

func TestVerifyRejectsPSIDSwap(t *testing.T) {
	cred, store := obu(t)
	msg, _ := cred.Sign(PSIDBasicSafety, []byte("x"), 0, false)
	msg.PSID = PSIDMisbehavior
	if _, err := store.Verify(msg, sim.Second, VerifyOptions{}); err == nil {
		t.Fatal("PSID swap accepted")
	}
}

func TestVerifyFreshness(t *testing.T) {
	cred, store := obu(t)
	msg, _ := cred.Sign(PSIDBasicSafety, []byte("x"), 10*sim.Second, false)
	if _, err := store.Verify(msg, 12*sim.Second, VerifyOptions{Freshness: sim.Second}); !errors.Is(err, ErrStale) {
		t.Fatalf("stale: err=%v", err)
	}
	if _, err := store.Verify(msg, 9*sim.Second, VerifyOptions{}); !errors.Is(err, ErrFuture) {
		t.Fatalf("future: err=%v", err)
	}
	if _, err := store.Verify(msg, 9*sim.Second+700*sim.Millisecond, VerifyOptions{FutureSlack: 200 * sim.Millisecond}); !errors.Is(err, ErrFuture) {
		t.Fatalf("future beyond slack: err=%v", err)
	}
	if _, err := store.Verify(msg, 10*sim.Second-100*sim.Millisecond, VerifyOptions{FutureSlack: 200 * sim.Millisecond}); err != nil {
		t.Fatalf("within slack: err=%v", err)
	}
}

func TestVerifyReplayOfOldMessageIsStale(t *testing.T) {
	// The freshness window is the anti-replay mechanism for broadcast BSMs.
	cred, store := obu(t)
	msg, _ := cred.Sign(PSIDBasicSafety, []byte("brake warning"), sim.Second, false)
	if _, err := store.Verify(msg, sim.Second+50*sim.Millisecond, VerifyOptions{Freshness: 500 * sim.Millisecond}); err != nil {
		t.Fatalf("fresh message rejected: %v", err)
	}
	// Attacker replays it 10 seconds later.
	if _, err := store.Verify(msg, 11*sim.Second, VerifyOptions{Freshness: 500 * sim.Millisecond}); !errors.Is(err, ErrStale) {
		t.Fatalf("replay accepted: %v", err)
	}
}

func TestDigestOnlyMessages(t *testing.T) {
	cred, store := obu(t)
	// First message carries the full cert.
	full, _ := cred.Sign(PSIDBasicSafety, []byte("1"), 0, false)
	if _, err := store.Verify(full, sim.Millisecond, VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	// Digest-only now resolves from the store's cache.
	short, _ := cred.Sign(PSIDBasicSafety, []byte("2"), sim.Second, true)
	if short.Cert != nil {
		t.Fatal("digest-only message carries a cert")
	}
	if _, err := store.Verify(short, sim.Second, VerifyOptions{}); err != nil {
		t.Fatalf("digest-only verify: %v", err)
	}
	// A fresh store cannot resolve the digest.
	_, sub, fresh := pki(t)
	_ = sub
	if _, err := fresh.Verify(short, sim.Second, VerifyOptions{}); !errors.Is(err, ErrNoCert) {
		t.Fatalf("err=%v", err)
	}
}

func TestWireBytesDigestSmaller(t *testing.T) {
	cred, _ := obu(t)
	full, _ := cred.Sign(PSIDBasicSafety, []byte("payload"), 0, false)
	short, _ := cred.Sign(PSIDBasicSafety, []byte("payload"), 0, true)
	if short.WireBytes() >= full.WireBytes() {
		t.Fatalf("digest message not smaller: %d vs %d", short.WireBytes(), full.WireBytes())
	}
}

func TestVerifyRevokedSigner(t *testing.T) {
	root, sub, store := pki(t)
	cred, _ := sub.Issue("obu-1", []PSID{PSIDBasicSafety}, 0, sim.Hour, false)
	msg, _ := cred.Sign(PSIDBasicSafety, []byte("x"), 0, false)
	crl, _ := root.SignCRL(1, []HashedID8{cred.Cert.ID()})
	if err := store.SetCRL(crl, sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Verify(msg, sim.Millisecond, VerifyOptions{}); !errors.Is(err, ErrRevoked) {
		t.Fatalf("err=%v", err)
	}
}

func TestPseudonymPoolRotation(t *testing.T) {
	_, sub, _ := pki(t)
	pool, err := NewPseudonymPool(sub, 5, []PSID{PSIDBasicSafety}, 0, sim.Hour, sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 5 {
		t.Fatalf("size=%d", pool.Size())
	}
	first := pool.Active(0)
	if pool.Active(30*sim.Second) != first {
		t.Fatal("rotated before period elapsed")
	}
	second := pool.Active(sim.Minute)
	if second == first {
		t.Fatal("did not rotate at period")
	}
	// Pseudonym certs carry no subject.
	if second.Cert.Subject != "" || !second.Cert.Pseudonym {
		t.Fatalf("pseudonym leaks identity: %+v", second.Cert)
	}
	// Wraps after exhausting the pool: rotations at 2,3,4 minutes walk the
	// remaining credentials; the rotation at 5 minutes reuses the first.
	for i := 2; i <= 4; i++ {
		pool.Active(sim.Time(i) * sim.Minute)
	}
	again := pool.Active(5 * sim.Minute)
	if again != first {
		t.Fatal("pool did not wrap to the first credential")
	}
	if pool.Rotations() != 5 {
		t.Fatalf("rotations=%d", pool.Rotations())
	}
}

func TestPseudonymPoolValidation(t *testing.T) {
	_, sub, _ := pki(t)
	if _, err := NewPseudonymPool(sub, 0, nil, 0, sim.Hour, sim.Minute); err == nil {
		t.Fatal("empty pool accepted")
	}
}

func TestPseudonymSignedMessageVerifies(t *testing.T) {
	_, sub, store := pki(t)
	pool, _ := NewPseudonymPool(sub, 3, []PSID{PSIDBasicSafety}, 0, sim.Hour, sim.Minute)
	cred := pool.Active(0)
	msg, err := cred.Sign(PSIDBasicSafety, []byte("anon BSM"), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := store.Verify(msg, sim.Millisecond, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Subject != "" {
		t.Fatal("verified pseudonym exposes a subject")
	}
}

// A message whose certificate carries no public key is rejected, not a
// nil dereference in the TBS encoding.
func TestVerifyRejectsNilPublicKeyCert(t *testing.T) {
	cred, store := obu(t)
	msg, _ := cred.Sign(PSIDBasicSafety, []byte("x"), 0, false)
	keyless := *cred.Cert
	keyless.PublicKey = nil
	keyless.idCached = false
	msg.Cert = &keyless
	if _, err := store.Verify(msg, sim.Second, VerifyOptions{}); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err=%v", err)
	}
}
