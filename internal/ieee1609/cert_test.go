package ieee1609

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"autosec/internal/sim"
)

var allPSIDs = []PSID{PSIDBasicSafety, PSIDMisbehavior, PSIDInfrastructry, PSIDCRL}

func pki(t *testing.T) (*Authority, *Authority, *Store) {
	t.Helper()
	root, err := NewRootAuthority("root-ca", allPSIDs, 0, sim.Hour*24*365*10)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := root.IssueCA("enrollment-ca", []PSID{PSIDBasicSafety, PSIDMisbehavior}, 0, sim.Hour*24*365)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(root.Cert)
	store.AddCert(sub.Cert)
	return root, sub, store
}

func TestChainVerification(t *testing.T) {
	_, sub, store := pki(t)
	cred, err := sub.Issue("obu-1", []PSID{PSIDBasicSafety}, 0, sim.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.VerifyChain(cred.Cert, sim.Minute); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestChainRejectsExpired(t *testing.T) {
	_, sub, store := pki(t)
	cred, _ := sub.Issue("obu-1", []PSID{PSIDBasicSafety}, 0, sim.Hour, false)
	if err := store.VerifyChain(cred.Cert, 2*sim.Hour); !errors.Is(err, ErrExpired) {
		t.Fatalf("err=%v", err)
	}
	if err := store.VerifyChain(cred.Cert, -sim.Second); !errors.Is(err, ErrExpired) {
		t.Fatalf("before NotBefore: err=%v", err)
	}
}

func TestChainRejectsUnknownIssuer(t *testing.T) {
	other, err := NewRootAuthority("rogue-root", allPSIDs, 0, sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred, _ := other.Issue("rogue-obu", []PSID{PSIDBasicSafety}, 0, sim.Hour, false)
	root, _, store := pki(t)
	if err := store.VerifyChain(cred.Cert, sim.Minute); !errors.Is(err, ErrUnknownIssuer) {
		t.Fatalf("err=%v", err)
	}
	// A foreign self-signed root is equally untrusted.
	if err := store.VerifyChain(other.Cert, sim.Minute); !errors.Is(err, ErrUnknownIssuer) {
		t.Fatalf("foreign root: err=%v", err)
	}
	// So is a byte-identical copy of the store's own root, even after the
	// root itself verified: an anchor is trusted by identity.
	if err := store.VerifyChain(root.Cert, sim.Minute); err != nil {
		t.Fatal(err)
	}
	rootCopy := *root.Cert
	if err := store.VerifyChain(&rootCopy, sim.Minute); !errors.Is(err, ErrUnknownIssuer) {
		t.Fatalf("root copy: err=%v", err)
	}
}

func TestChainRejectsPSIDEscalation(t *testing.T) {
	_, sub, store := pki(t)
	// sub may only issue BasicSafety/Misbehavior; a cert claiming
	// Infrastructure must be rejected even though the signature is valid.
	cred, err := sub.Issue("greedy-obu", []PSID{PSIDBasicSafety, PSIDInfrastructry}, 0, sim.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.VerifyChain(cred.Cert, sim.Minute); !errors.Is(err, ErrPSIDEscalate) {
		t.Fatalf("err=%v", err)
	}
}

func TestChainRejectsNonCAIssuer(t *testing.T) {
	_, sub, store := pki(t)
	leaf, _ := sub.Issue("obu-1", []PSID{PSIDBasicSafety}, 0, sim.Hour, false)
	store.AddCert(leaf.Cert)
	// Forge a certificate that names the leaf as its issuer. Signature
	// won't even matter: the CA flag check fires first.
	fake := &Certificate{
		Subject:   "forged",
		IssuerID:  leaf.Cert.ID(),
		PSIDs:     []PSID{PSIDBasicSafety},
		NotAfter:  sim.Hour,
		PublicKey: leaf.Cert.PublicKey,
		SigR:      leaf.Cert.SigR,
		SigS:      leaf.Cert.SigS,
	}
	if err := store.VerifyChain(fake, sim.Minute); !errors.Is(err, ErrNotCA) {
		t.Fatalf("err=%v", err)
	}
}

// A certificate changed in place after it verified is rejected, whether
// or not its memoized ID is reset.
func TestChainRejectsTamperedCert(t *testing.T) {
	for _, resetID := range []bool{false, true} {
		_, sub, store := pki(t)
		cred, _ := sub.Issue("obu-1", []PSID{PSIDBasicSafety}, 0, sim.Hour, false)
		if err := store.VerifyChain(cred.Cert, sim.Minute); err != nil {
			t.Fatal(err)
		}
		cred.Cert.Subject = "obu-1-promoted" // invalidates issuer signature
		if resetID {
			cred.Cert.idCached = false
		}
		if err := store.VerifyChain(cred.Cert, sim.Minute); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("resetID=%v: err=%v", resetID, err)
		}
	}
}

func TestCertIDStableAndDistinct(t *testing.T) {
	_, sub, _ := pki(t)
	a, _ := sub.Issue("a", []PSID{PSIDBasicSafety}, 0, sim.Hour, false)
	b, _ := sub.Issue("b", []PSID{PSIDBasicSafety}, 0, sim.Hour, false)
	if a.Cert.ID() != a.Cert.ID() {
		t.Fatal("ID not stable")
	}
	if a.Cert.ID() == b.Cert.ID() {
		t.Fatal("distinct certs share an ID")
	}
	if a.Cert.ID().String() == "" {
		t.Fatal("empty ID string")
	}
}

func TestPermitsAndValidity(t *testing.T) {
	c := &Certificate{PSIDs: []PSID{1, 2}, NotBefore: 10, NotAfter: 20}
	if !c.Permits(1) || c.Permits(3) {
		t.Fatal("Permits wrong")
	}
	if c.ValidAt(9) || !c.ValidAt(10) || !c.ValidAt(20) || c.ValidAt(21) {
		t.Fatal("ValidAt boundaries wrong")
	}
}

func TestRevocation(t *testing.T) {
	root, sub, store := pki(t)
	cred, _ := sub.Issue("obu-1", []PSID{PSIDBasicSafety}, 0, sim.Hour, false)
	other, _ := sub.Issue("obu-2", []PSID{PSIDBasicSafety}, 0, sim.Hour, false)
	for _, c := range []*Certificate{cred.Cert, other.Cert} {
		if err := store.VerifyChain(c, sim.Minute); err != nil {
			t.Fatal(err)
		}
	}
	crl, err := root.SignCRL(1, []HashedID8{cred.Cert.ID()})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SetCRL(crl, sim.Minute); err != nil {
		t.Fatal(err)
	}
	if err := store.VerifyChain(cred.Cert, sim.Minute); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked cert verified: %v", err)
	}
	if err := store.VerifyChain(other.Cert, sim.Minute); err != nil {
		t.Fatal(err)
	}
	// Revoking the intermediate rejects a leaf that verified under it.
	crl, _ = root.SignCRL(2, []HashedID8{sub.Cert.ID()})
	if err := store.SetCRL(crl, sim.Minute); err != nil {
		t.Fatal(err)
	}
	if err := store.VerifyChain(other.Cert, sim.Minute); !errors.Is(err, ErrRevoked) {
		t.Fatalf("leaf under revoked CA verified: %v", err)
	}
}

func TestCRLStaleSequenceRejected(t *testing.T) {
	root, _, store := pki(t)
	crl2, _ := root.SignCRL(2, nil)
	if err := store.SetCRL(crl2, sim.Minute); err != nil {
		t.Fatal(err)
	}
	crl1, _ := root.SignCRL(1, nil)
	if err := store.SetCRL(crl1, sim.Minute); err == nil {
		t.Fatal("stale CRL accepted")
	}
}

func TestCRLSignerMustBeTrustedAndPermitted(t *testing.T) {
	_, sub, store := pki(t)
	// sub lacks PSIDCRL.
	subCRL := &Authority{Cert: sub.Cert, priv: nil}
	_ = subCRL
	rogue, _ := NewRootAuthority("rogue", allPSIDs, 0, sim.Hour)
	crl, _ := rogue.SignCRL(1, nil)
	if err := store.SetCRL(crl, sim.Minute); err == nil {
		t.Fatal("CRL from untrusted root accepted")
	}
	crlSub, err := sub.SignCRL(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SetCRL(crlSub, sim.Minute); !errors.Is(err, ErrPSIDDenied) {
		t.Fatalf("CRL signer without PSIDCRL accepted: %v", err)
	}
}

func TestCRLTamperRejected(t *testing.T) {
	root, sub, store := pki(t)
	cred, _ := sub.Issue("obu-1", []PSID{PSIDBasicSafety}, 0, sim.Hour, false)
	crl, _ := root.SignCRL(1, nil)
	crl.Revoked = append(crl.Revoked, cred.Cert.ID()) // tamper after signing
	if err := store.SetCRL(crl, sim.Minute); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered CRL accepted: %v", err)
	}
}

func TestChainDepthLimit(t *testing.T) {
	root, _ := NewRootAuthority("root", allPSIDs, 0, sim.Hour)
	store := NewStore(root.Cert)
	store.MaxChainDepth = 2
	ca := root
	var leafCA *Authority
	for i := 0; i < 4; i++ {
		next, err := ca.IssueCA("ca", allPSIDs, 0, sim.Hour)
		if err != nil {
			t.Fatal(err)
		}
		store.AddCert(next.Cert)
		ca = next
		leafCA = next
	}
	cred, _ := leafCA.Issue("deep", []PSID{PSIDBasicSafety}, 0, sim.Hour, false)
	if err := store.VerifyChain(cred.Cert, sim.Minute); !errors.Is(err, ErrChainDepth) {
		t.Fatalf("err=%v", err)
	}
}

// A CRL without a signer is rejected, not a nil dereference in the chain
// walk.
func TestCRLNilSignerRejected(t *testing.T) {
	root, _, store := pki(t)
	crl, _ := root.SignCRL(1, nil)
	crl.Signer = nil
	if err := store.SetCRL(crl, sim.Minute); !errors.Is(err, ErrUnknownIssuer) {
		t.Fatalf("err=%v", err)
	}
}

// A known issuer without a public key rejects what names it, rather than
// handing ECDSA a nil key.
func TestChainRejectsKeylessKnownIssuer(t *testing.T) {
	_, sub, store := pki(t)
	cred, _ := sub.Issue("obu-1", []PSID{PSIDBasicSafety}, 0, sim.Hour, false)
	keyless := *sub.Cert // keeps sub's memoized ID
	keyless.PublicKey = nil
	store.AddCert(&keyless)
	if err := store.VerifyChain(cred.Cert, sim.Minute); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err=%v", err)
	}
}

// Moving a byte between R and S leaves the variable-width R‖S bytes
// unchanged, but the fixed-width canonical encoding, and so the ID, sees
// it; the re-split signature is rejected.
func TestIDBindsSignatureSplit(t *testing.T) {
	_, sub, store := pki(t)
	cred, _ := sub.Issue("obu-1", []PSID{PSIDBasicSafety}, 0, sim.Hour, false)
	c := cred.Cert
	if err := store.VerifyChain(c, sim.Minute); err != nil {
		t.Fatal(err)
	}
	r, s := c.SigR.Bytes(), c.SigS.Bytes()
	resplits := map[string][2][]byte{
		"R's last byte to S":  {r[:len(r)-1], append([]byte{r[len(r)-1]}, s...)},
		"S's first byte to R": {append(append([]byte(nil), r...), s[0]), s[1:]},
	}
	for name, rs := range resplits {
		t.Run(name, func(t *testing.T) {
			if rs[1][0] == 0 || rs[0][0] == 0 {
				t.Skip("moved byte is zero, so Bytes() would drop it")
			}
			re := *c
			re.SigR, re.SigS = new(big.Int).SetBytes(rs[0]), new(big.Int).SetBytes(rs[1])
			re.idCached = false
			if !bytes.Equal(append(re.SigR.Bytes(), re.SigS.Bytes()...), append(r, s...)) {
				t.Fatal("re-split changed the variable-width R‖S bytes")
			}
			if re.ID() == c.ID() {
				t.Fatal("re-split signature kept the ID")
			}
			if err := store.VerifyChain(&re, sim.Minute); !errors.Is(err, ErrBadSignature) {
				t.Fatalf("re-split signature: err=%v", err)
			}
		})
	}
}

// A NUL-terminated subject let a longer subject absorb the issuer ID and
// PSID count; the length-prefixed TBS tells the two apart.
func TestTBSEncodingUnambiguous(t *testing.T) {
	a := &Certificate{Subject: "s", PSIDs: []PSID{1, PSIDBasicSafety}}
	b := &Certificate{Subject: "s\x00\x00\x00\x00", IssuerID: HashedID8{7: 2}, PSIDs: []PSID{PSIDBasicSafety}}
	ta, _ := a.appendTBS(nil)
	tb, _ := b.appendTBS(nil)
	if bytes.Equal(ta, tb) {
		t.Fatal("distinct certificates share a TBS encoding")
	}
}
