// Package ieee1609 implements an IEEE 1609.2-flavoured security envelope
// for V2X messages: ECDSA P-256 certificates with PSID (application)
// permissions and validity periods, certificate chains rooted in a trust
// anchor, signed messages, certificate revocation lists, and pseudonym
// certificate pools for sender privacy.
//
// This is the paper's Secure Interfaces layer. The structures are
// simplified relative to the ASN.1/OER encodings of the standard (explicit
// certificates only, byte-level encodings of our own design) but the
// security architecture — chain of trust, permission checks, revocation,
// short-lived pseudonyms for anonymity — matches, which is what the
// security/privacy conundrum experiments need.
package ieee1609

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"autosec/internal/sim"
)

// PSID identifies an application class (Provider Service Identifier).
type PSID uint32

// Well-known PSIDs used by the scenarios.
const (
	PSIDBasicSafety   PSID = 0x20 // BSM broadcast
	PSIDMisbehavior   PSID = 0x26 // misbehaviour reporting
	PSIDInfrastructry PSID = 0x83 // RSU infrastructure messages
	PSIDCRL           PSID = 0x100
)

// HashedID8 is the truncated SHA-256 certificate identifier of 1609.2.
type HashedID8 [8]byte

func (h HashedID8) String() string { return fmt.Sprintf("%x", h[:]) }

// Certificate is an explicit 1609.2-style certificate.
type Certificate struct {
	Subject   string
	IssuerID  HashedID8 // zero for self-signed roots
	PSIDs     []PSID
	NotBefore sim.Time
	NotAfter  sim.Time
	// IsCA marks certificate-issuing certificates.
	IsCA bool
	// Pseudonym marks short-lived anonymous certificates: they carry no
	// linkable subject information on the wire.
	Pseudonym bool

	PublicKey *ecdsa.PublicKey
	// Signature over TBS by the issuer.
	SigR, SigS *big.Int

	id       HashedID8
	idCached bool
}

// Errors.
var (
	ErrExpired       = errors.New("ieee1609: certificate outside validity period")
	ErrBadSignature  = errors.New("ieee1609: signature verification failed")
	ErrUnknownIssuer = errors.New("ieee1609: issuer not trusted")
	ErrPSIDDenied    = errors.New("ieee1609: PSID not permitted by certificate")
	ErrNotCA         = errors.New("ieee1609: issuer certificate is not a CA")
	ErrRevoked       = errors.New("ieee1609: certificate revoked")
	ErrPSIDEscalate  = errors.New("ieee1609: certificate claims PSIDs its issuer lacks")
	ErrChainDepth    = errors.New("ieee1609: chain too deep")
)

// appendTBS appends the deterministic To-Be-Signed encoding and reports
// whether the public key is encodable: a P-256 key whose X fits in 256
// bits. Every variable-length field is length-prefixed, so the encoding
// is injective. An unencodable key is written as 33 zero bytes, which no
// compressed point starts with.
func (c *Certificate) appendTBS(b []byte) ([]byte, bool) {
	var tmp [8]byte
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(c.Subject)))
	b = append(b, tmp[:4]...)
	b = append(b, c.Subject...)
	b = append(b, c.IssuerID[:]...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(c.PSIDs)))
	b = append(b, tmp[:4]...)
	for _, p := range c.PSIDs {
		binary.BigEndian.PutUint32(tmp[:4], uint32(p))
		b = append(b, tmp[:4]...)
	}
	binary.BigEndian.PutUint64(tmp[:], uint64(c.NotBefore))
	b = append(b, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(c.NotAfter))
	b = append(b, tmp[:]...)
	flags := byte(0)
	if c.IsCA {
		flags |= 1
	}
	if c.Pseudonym {
		flags |= 2
	}
	b = append(b, flags)
	// The compressed point, as elliptic.MarshalCompressed writes it.
	if k := c.PublicKey; encodableKey(k) {
		return appendFixed256(append(b, 2|byte(k.Y.Bit(0))), k.X), true
	}
	return appendFixed256(append(b, 0), nil), false
}

// appendCanonical appends c's canonical encoding, TBS ‖ R ‖ S with R and S
// at a fixed 32-byte width, and reports whether every part is encodable.
func (c *Certificate) appendCanonical(b []byte) ([]byte, bool) {
	b, ok := c.appendTBS(b)
	b = appendFixed256(appendFixed256(b, c.SigR), c.SigS)
	return b, ok && fits256(c.SigR) && fits256(c.SigS)
}

// encodableKey reports whether k is a P-256 key the TBS encoding can
// carry.
func encodableKey(k *ecdsa.PublicKey) bool {
	return k != nil && k.Curve == elliptic.P256() && fits256(k.X) && k.Y != nil
}

// fits256 reports whether x is non-nil, non-negative and at most 256 bits
// wide.
func fits256(x *big.Int) bool { return x != nil && x.Sign() >= 0 && x.BitLen() <= 256 }

var zero256 [32]byte

// appendFixed256 appends x as 32 big-endian bytes, or 32 zero bytes when
// x does not fit.
func appendFixed256(b []byte, x *big.Int) []byte {
	n := len(b)
	b = append(b, zero256[:]...)
	if fits256(x) {
		x.FillBytes(b[n:])
	}
	return b
}

// idOf is the HashedID8 of a canonical digest: its low 8 bytes.
func idOf(sum [32]byte) (id HashedID8) {
	copy(id[:], sum[len(sum)-len(id):])
	return id
}

// ID returns the HashedID8: the low 8 bytes of SHA-256 over the canonical
// encoding (TBS plus fixed-width signature, per the spirit of 1609.2).
func (c *Certificate) ID() HashedID8 {
	if !c.idCached {
		b, _ := c.appendCanonical(nil)
		c.id, c.idCached = idOf(sha256.Sum256(b)), true
	}
	return c.id
}

// ValidAt reports whether t falls inside the validity period.
func (c *Certificate) ValidAt(t sim.Time) bool {
	return t >= c.NotBefore && t <= c.NotAfter
}

// Permits reports whether the certificate grants the PSID.
func (c *Certificate) Permits(p PSID) bool {
	for _, q := range c.PSIDs {
		if q == p {
			return true
		}
	}
	return false
}

// verifySignedBy checks c's signature under issuer's public key. A
// certificate or issuer whose key is not encodable is rejected.
func (c *Certificate) verifySignedBy(issuer *Certificate) error {
	tbs, ok := c.appendTBS(nil)
	if !ok || !encodableKey(issuer.PublicKey) || c.SigR == nil || c.SigS == nil {
		return ErrBadSignature
	}
	digest := sha256.Sum256(tbs)
	if !ecdsa.Verify(issuer.PublicKey, digest[:], c.SigR, c.SigS) {
		return ErrBadSignature
	}
	return nil
}

// Authority is a certificate authority: a keypair plus its own certificate.
type Authority struct {
	Cert *Certificate
	priv *ecdsa.PrivateKey
}

// NewRootAuthority creates a self-signed root CA valid over [notBefore,
// notAfter] with unrestricted issuing power for the given PSIDs.
func NewRootAuthority(subject string, psids []PSID, notBefore, notAfter sim.Time) (*Authority, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	cert := &Certificate{
		Subject:   subject,
		PSIDs:     psids,
		NotBefore: notBefore,
		NotAfter:  notAfter,
		IsCA:      true,
		PublicKey: &priv.PublicKey,
	}
	if err := signCert(cert, priv); err != nil {
		return nil, err
	}
	return &Authority{Cert: cert, priv: priv}, nil
}

func signCert(c *Certificate, priv *ecdsa.PrivateKey) error {
	tbs, _ := c.appendTBS(nil)
	digest := sha256.Sum256(tbs)
	r, s, err := ecdsa.Sign(rand.Reader, priv, digest[:])
	if err != nil {
		return err
	}
	c.SigR, c.SigS = r, s
	c.idCached = false
	return nil
}

// IssueCA issues a subordinate CA certificate and returns its Authority.
func (a *Authority) IssueCA(subject string, psids []PSID, notBefore, notAfter sim.Time) (*Authority, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	cert := &Certificate{
		Subject:   subject,
		IssuerID:  a.Cert.ID(),
		PSIDs:     psids,
		NotBefore: notBefore,
		NotAfter:  notAfter,
		IsCA:      true,
		PublicKey: &priv.PublicKey,
	}
	if err := signCert(cert, a.priv); err != nil {
		return nil, err
	}
	return &Authority{Cert: cert, priv: priv}, nil
}

// Issue issues an end-entity certificate and returns it with its private
// key holder (a Credential).
func (a *Authority) Issue(subject string, psids []PSID, notBefore, notAfter sim.Time, pseudonym bool) (*Credential, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	cert := &Certificate{
		Subject:   subject,
		IssuerID:  a.Cert.ID(),
		PSIDs:     psids,
		NotBefore: notBefore,
		NotAfter:  notAfter,
		Pseudonym: pseudonym,
		PublicKey: &priv.PublicKey,
	}
	if err := signCert(cert, a.priv); err != nil {
		return nil, err
	}
	return &Credential{Cert: cert, priv: priv}, nil
}

// Credential is an end-entity certificate with its private key — what a
// vehicle's on-board unit holds.
type Credential struct {
	Cert *Certificate
	priv *ecdsa.PrivateKey
}

// Store is a verifier's certificate state: trust anchors, learned
// certificates, the current CRL, and a cache of successful chain walks.
//
// The cache is keyed on the SHA-256 of a certificate's canonical encoding
// (see ID), so a certificate changed in any byte misses it. An entry
// holds only the intersection of the chain's validity windows and the
// walked depth, both re-checked by comparison at each hit. A new CRL
// clears the cache, and so does AddCert replacing a known CA with a
// different certificate. Only walks that reach a root through at least
// one signature are cached; rejections always take the full walk. The
// store holds roots and known certificates by pointer and treats them as
// immutable once handed over, as it already does for a root, which it
// trusts by pointer identity alone.
//
// A Store is not safe for concurrent use: Verify records the signer's
// certificate and VerifyChain fills the cache.
type Store struct {
	roots map[HashedID8]*Certificate
	known map[HashedID8]*Certificate
	crl   *CRL
	// verified caches successful chain walks by canonical digest.
	verified map[[sha256.Size]byte]chainEntry
	// scratch holds the canonical encoding being hashed.
	scratch []byte
	// MaxChainDepth bounds chain walks (default 4).
	MaxChainDepth int
}

// chainEntry is a cached successful chain walk.
type chainEntry struct {
	// notBefore and notAfter bound the intersection of the validity
	// windows of every certificate on the chain.
	notBefore, notAfter sim.Time
	// depth is the number of signatures walked to reach the root.
	depth int
}

// NewStore creates a store trusting the given root certificates.
func NewStore(roots ...*Certificate) *Store {
	s := &Store{
		roots:         make(map[HashedID8]*Certificate),
		known:         make(map[HashedID8]*Certificate),
		verified:      make(map[[sha256.Size]byte]chainEntry),
		MaxChainDepth: 4,
	}
	for _, r := range roots {
		s.roots[r.ID()] = r
	}
	return s
}

// AddCert caches an intermediate or end-entity certificate for chain
// building (e.g. received alongside a message).
func (s *Store) AddCert(c *Certificate) {
	id := c.ID()
	if old, ok := s.known[id]; ok && old != c && old.IsCA {
		// A different certificate under a CA's ID (a copy, or one whose
		// memoized ID no longer matches its bytes) may change the walks
		// that went through that CA.
		clear(s.verified)
	}
	s.known[id] = c
}

// SetCRL installs a revocation list after verifying its signature against
// the store's trust anchors. Installing it clears the chain cache: the
// list may revoke an intermediate as well as a leaf.
func (s *Store) SetCRL(crl *CRL, at sim.Time) error {
	if crl == nil || crl.Signer == nil {
		return fmt.Errorf("ieee1609: CRL signer: %w", ErrUnknownIssuer)
	}
	if err := s.VerifyChain(crl.Signer, at); err != nil {
		return fmt.Errorf("ieee1609: CRL signer: %w", err)
	}
	if !crl.Signer.Permits(PSIDCRL) {
		return ErrPSIDDenied
	}
	if err := crl.verify(); err != nil {
		return err
	}
	if s.crl != nil && crl.Sequence <= s.crl.Sequence {
		return fmt.Errorf("ieee1609: stale CRL sequence %d", crl.Sequence)
	}
	s.crl = crl
	clear(s.verified)
	return nil
}

// Revoked reports whether the certificate appears on the current CRL.
func (s *Store) Revoked(id HashedID8) bool {
	if s.crl == nil {
		return false
	}
	return s.crl.Contains(id)
}

// VerifyChain validates cert at time at: signature chain to a trusted
// root, validity windows, CA flags, PSID non-escalation and revocation.
// A certificate already walked under the current CRL is checked against
// its cached entry instead, without signature work.
func (s *Store) VerifyChain(cert *Certificate, at sim.Time) error {
	var ok bool
	s.scratch, ok = cert.appendCanonical(s.scratch[:0])
	key := sha256.Sum256(s.scratch)
	if !cert.idCached {
		cert.id, cert.idCached = idOf(key), true
	}
	// A memoized ID that no longer matches the bytes would change the
	// walk's revocation and root lookups, so such a certificate neither
	// hits nor fills the cache.
	ok = ok && cert.id == idOf(key)
	if e, hit := s.verified[key]; ok && hit &&
		at >= e.notBefore && at <= e.notAfter && e.depth <= s.MaxChainDepth {
		return nil
	}
	e, err := s.walk(cert, at)
	if ok && err == nil && e.depth > 0 {
		s.verified[key] = e
	}
	return err
}

// walk is the uncached chain walk. On success it returns the chain's
// window intersection and depth.
func (s *Store) walk(cert *Certificate, at sim.Time) (chainEntry, error) {
	e := chainEntry{notBefore: cert.NotBefore, notAfter: cert.NotAfter}
	c := cert
	for {
		if e.depth > s.MaxChainDepth {
			return e, ErrChainDepth
		}
		if !c.ValidAt(at) {
			return e, fmt.Errorf("%w: %s", ErrExpired, c.Subject)
		}
		e.notBefore, e.notAfter = max(e.notBefore, c.NotBefore), min(e.notAfter, c.NotAfter)
		if s.Revoked(c.ID()) {
			return e, fmt.Errorf("%w: %s", ErrRevoked, c.ID())
		}
		if root, ok := s.roots[c.ID()]; ok && root == c {
			return e, nil // reached a trust anchor
		}
		var zero HashedID8
		if c.IssuerID == zero {
			// Self-signed but not a configured anchor.
			return e, ErrUnknownIssuer
		}
		issuer, ok := s.roots[c.IssuerID]
		if !ok {
			issuer, ok = s.known[c.IssuerID]
		}
		if !ok {
			return e, fmt.Errorf("%w: %s", ErrUnknownIssuer, c.IssuerID)
		}
		if !issuer.IsCA {
			return e, ErrNotCA
		}
		for _, p := range c.PSIDs {
			if !issuer.Permits(p) {
				return e, fmt.Errorf("%w: %#x", ErrPSIDEscalate, p)
			}
		}
		if err := c.verifySignedBy(issuer); err != nil {
			return e, err
		}
		c = issuer
		e.depth++
	}
}
