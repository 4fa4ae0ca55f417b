package ieee1609

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"math/big"
	"math/rand/v2"
	"testing"

	"autosec/internal/sim"
)

// TestVerifyCacheMatchesUncached drives a store through a seeded random
// sequence over a root → CA → CA → leaf PKI: chain and message
// verifications at random times and at every validity boundary, CRLs
// revoking leaves and intermediates, AddCert, MaxChainDepth changes,
// in-place leaf tampering with and without resetting the memoized ID,
// copies of leaves with and without re-split signatures, a byte-identical
// copy of the root presented as a leaf, and a CA impostor under the CA's
// ID. After every step it compares the store's result with that of a
// store freshly built from the same roots, known certificates, CRL and
// depth, whose cache is empty.
func TestVerifyCacheMatchesUncached(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			p := newCachePKI(t, seed)
			hits := 0
			for step := 0; step < 600; step++ {
				hits += p.step(t, step)
			}
			t.Logf("%d cache hits", hits)
			if hits < 10 {
				t.Fatalf("only %d cache hits: the sequence does not exercise the cache", hits)
			}
		})
	}
}

// cachePKI is the property test's state: the PKI, the store under test,
// and every certificate and message the steps draw from.
type cachePKI struct {
	rng            *rand.Rand
	root, ca1, ca2 *Authority
	store          *Store
	leaves         []*leafState
	certs          []*Certificate // chain-verification candidates
	msgs           []*SignedMessage
	times          []sim.Time
	crlSeq         uint64
}

// leafState remembers a leaf's issued fields so tampering can be undone.
type leafState struct {
	cred      *Credential
	subject   string
	psids     []PSID
	notBefore sim.Time
	notAfter  sim.Time
}

func newCachePKI(t *testing.T, seed uint64) *cachePKI {
	t.Helper()
	p := &cachePKI{rng: rand.New(rand.NewPCG(seed, 0xCAC4E))}
	var err error
	nb, na := p.window()
	if p.root, err = NewRootAuthority("root", allPSIDs, nb, na); err != nil {
		t.Fatal(err)
	}
	nb, na = p.window()
	if p.ca1, err = p.root.IssueCA("ca-1", allPSIDs, nb, na); err != nil {
		t.Fatal(err)
	}
	nb, na = p.window()
	if p.ca2, err = p.ca1.IssueCA("ca-2", []PSID{PSIDBasicSafety, PSIDMisbehavior}, nb, na); err != nil {
		t.Fatal(err)
	}
	p.store = NewStore(p.root.Cert)
	p.store.AddCert(p.ca1.Cert)
	p.store.AddCert(p.ca2.Cert)
	// Copies keep the memoized ID: a copy of the root, and a CA
	// impostor with another key that AddCert can put in ca-2's place.
	rootCopy, impostor := *p.root.Cert, *p.ca2.Cert
	impostor.PublicKey = p.ca1.Cert.PublicKey
	p.certs = append(p.certs, p.root.Cert, p.ca1.Cert, p.ca2.Cert, &rootCopy, &impostor)
	for i := 0; i < 6; i++ {
		p.issueLeaf(t, []*Authority{p.root, p.ca1, p.ca2}[i%3])
	}
	return p
}

// window draws a validity window inside [0, 1000].
func (p *cachePKI) window() (sim.Time, sim.Time) {
	return sim.Time(p.rng.IntN(300)), sim.Time(700 + p.rng.IntN(300))
}

// issueLeaf issues a leaf, sometimes claiming a PSID its CA lacks, and
// signs one message with the certificate attached and one digest-only.
func (p *cachePKI) issueLeaf(t *testing.T, ca *Authority) {
	t.Helper()
	psids := []PSID{PSIDBasicSafety}
	if p.rng.IntN(4) == 0 {
		psids = append(psids, PSIDInfrastructry)
	}
	nb, na := p.window()
	cred, err := ca.Issue(fmt.Sprint("leaf-", len(p.leaves)), psids, nb, na, p.rng.IntN(2) == 0)
	if err != nil {
		t.Fatal(err)
	}
	p.leaves = append(p.leaves, &leafState{cred, cred.Cert.Subject, cred.Cert.PSIDs, nb, na})
	p.certs = append(p.certs, cred.Cert)
	for _, c := range []*Certificate{p.root.Cert, p.ca1.Cert, p.ca2.Cert, cred.Cert} {
		p.times = append(p.times, c.NotBefore-1, c.NotBefore, c.NotAfter, c.NotAfter+1)
	}
	for _, digestOnly := range []bool{false, true} {
		m, err := cred.Sign(PSIDBasicSafety, []byte("bsm"), sim.Time(p.rng.IntN(500)), digestOnly)
		if err != nil {
			t.Fatal(err)
		}
		p.msgs = append(p.msgs, m)
	}
}

// at draws a time: a validity boundary of some chain member, a time
// inside every window, or any time.
func (p *cachePKI) at() sim.Time {
	switch p.rng.IntN(3) {
	case 0:
		return p.times[p.rng.IntN(len(p.times))]
	case 1:
		return sim.Time(300 + p.rng.IntN(400))
	}
	return sim.Time(p.rng.IntN(1020) - 10)
}

func (p *cachePKI) leaf() *leafState { return p.leaves[p.rng.IntN(len(p.leaves))] }

// uncached returns a store with an empty cache holding the same roots,
// known certificates, CRL and depth as s.
func uncached(s *Store) *Store {
	ref := NewStore()
	maps.Copy(ref.roots, s.roots)
	maps.Copy(ref.known, s.known)
	ref.crl, ref.MaxChainDepth = s.crl, s.MaxChainDepth
	return ref
}

// cached reports whether c's canonical digest has a cache entry in s.
func cached(s *Store, c *Certificate) bool {
	b, _ := c.appendCanonical(nil)
	_, ok := s.verified[sha256.Sum256(b)]
	return ok
}

// step runs one random step and reports whether it was a successful
// verification with a cache entry present for the certificate.
func (p *cachePKI) step(t *testing.T, n int) (hit int) {
	t.Helper()
	s := p.store
	ref := uncached(s)
	check := func(what string, got, want error) {
		t.Helper()
		if !sameError(got, want) {
			t.Fatalf("step %d %s: cached %v, uncached %v", n, what, got, want)
		}
	}
	switch r := p.rng.IntN(100); {
	case r < 35:
		c, at := p.leaf().cred.Cert, p.at()
		if p.rng.IntN(2) == 0 {
			c = p.certs[p.rng.IntN(len(p.certs))]
		}
		wasCached := cached(s, c)
		err := s.VerifyChain(c, at)
		check(fmt.Sprintf("VerifyChain(%s, %d)", c.Subject, at), err, ref.VerifyChain(c, at))
		if err == nil && wasCached {
			hit = 1
		}
	case r < 60:
		m, now := p.msgs[p.rng.IntN(len(p.msgs))], p.at()
		opts := VerifyOptions{}
		if p.rng.IntN(2) == 0 {
			opts.Freshness = sim.Duration(p.rng.IntN(500))
		}
		signer := m.Cert
		if signer == nil {
			signer = s.known[m.Digest]
		}
		wasCached := signer != nil && cached(s, signer)
		got, err := s.Verify(m, now, opts)
		want, wantErr := ref.Verify(m, now, opts)
		check(fmt.Sprintf("Verify(at %d)", now), err, wantErr)
		if got != want {
			t.Fatalf("step %d Verify: cached returned %p, uncached %p", n, got, want)
		}
		if err == nil && wasCached {
			hit = 1
		}
	case r < 65:
		// A CRL from the root or ca-1, or from ca-2, which lacks
		// PSIDCRL; now and then a stale sequence number.
		var revoked []HashedID8
		for _, c := range []*Certificate{p.ca1.Cert, p.ca2.Cert, p.leaf().cred.Cert, p.leaf().cred.Cert} {
			if p.rng.IntN(5) == 0 {
				revoked = append(revoked, c.ID())
			}
		}
		p.crlSeq++
		seq := p.crlSeq
		if p.rng.IntN(8) == 0 {
			seq = 0
		}
		signer := []*Authority{p.root, p.ca1, p.ca2}[p.rng.IntN(3)]
		crl, err := signer.SignCRL(seq, revoked)
		if err != nil {
			t.Fatal(err)
		}
		at := p.at()
		check(fmt.Sprintf("SetCRL(%s, %d)", signer.Cert.Subject, at), s.SetCRL(crl, at), ref.SetCRL(crl, at))
	case r < 70:
		s.AddCert(p.certs[p.rng.IntN(len(p.certs))])
	case r < 75:
		// Mostly deep enough for every chain, sometimes too shallow.
		s.MaxChainDepth = max(4, p.rng.IntN(10)-1)
		if p.rng.IntN(4) == 0 {
			s.MaxChainDepth = p.rng.IntN(5) - 1
		}
	case r < 81:
		l := p.leaf()
		c := l.cred.Cert
		switch p.rng.IntN(4) {
		case 0:
			c.Subject += "!"
		case 1:
			c.NotAfter++
		case 2:
			c.PSIDs = append(append([]PSID(nil), c.PSIDs...), PSIDMisbehavior)
		case 3:
			c.NotBefore--
		}
		if p.rng.IntN(2) == 0 {
			c.idCached = false
		}
	case r < 93:
		l := p.leaf()
		c := l.cred.Cert
		c.Subject, c.PSIDs, c.NotBefore, c.NotAfter = l.subject, l.psids, l.notBefore, l.notAfter
		if p.rng.IntN(2) == 0 {
			c.idCached = false
		}
	case r < 99:
		// Copy a leaf, memoized ID and all, and half the time move a byte
		// between R and S: the same variable-width bytes, split
		// differently.
		re := *p.leaf().cred.Cert
		if p.rng.IntN(2) == 0 {
			rb, sb := re.SigR.Bytes(), re.SigS.Bytes()
			re.SigR, re.SigS = new(big.Int).SetBytes(rb[:len(rb)-1]), new(big.Int).SetBytes(append(rb[len(rb)-1:], sb...))
		}
		if p.rng.IntN(2) == 0 {
			re.idCached = false
		}
		p.certs = append(p.certs, &re)
	default:
		p.issueLeaf(t, []*Authority{p.root, p.ca1, p.ca2}[p.rng.IntN(3)])
	}
	return hit
}

var sentinels = []error{
	ErrExpired, ErrBadSignature, ErrUnknownIssuer, ErrPSIDDenied, ErrNotCA,
	ErrRevoked, ErrPSIDEscalate, ErrChainDepth, ErrStale, ErrNoCert, ErrFuture, ErrMsgTampered,
}

// sameError reports whether a and b match every sentinel alike and read
// the same.
func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	for _, s := range sentinels {
		if errors.Is(a, s) != errors.Is(b, s) {
			return false
		}
	}
	return a.Error() == b.Error()
}

// TestVerifyChainHitAllocs pins the cache hit at 0 allocations: the
// canonical encoding goes into the store's scratch buffer and the digest
// stays on the stack.
func TestVerifyChainHitAllocs(t *testing.T) {
	cred, store := obu(t)
	if err := store.VerifyChain(cred.Cert, sim.Minute); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := store.VerifyChain(cred.Cert, sim.Minute); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit makes %v allocs, want 0", allocs)
	}
}

// A certificate whose memoized ID no longer matches its bytes is looked
// up on the CRL under that stale ID by the walk, so it must not hit an
// entry cached for the same bytes under their true ID.
func TestCacheSkipsStaleMemoizedID(t *testing.T) {
	root, sub, store := pki(t)
	cred, _ := sub.Issue("obu-1", []PSID{PSIDBasicSafety}, 0, sim.Hour, false)
	stale := *cred.Cert
	stale.Subject = "obu-1-tampered"
	stale.idCached = false
	staleID := stale.ID()
	stale.Subject = cred.Cert.Subject // same bytes as cred.Cert, stale ID
	crl, _ := root.SignCRL(1, []HashedID8{staleID})
	if err := store.SetCRL(crl, sim.Minute); err != nil {
		t.Fatal(err)
	}
	if err := store.VerifyChain(cred.Cert, sim.Minute); err != nil {
		t.Fatal(err)
	}
	if err := store.VerifyChain(&stale, sim.Minute); !errors.Is(err, ErrRevoked) {
		t.Fatalf("err=%v", err)
	}
}
