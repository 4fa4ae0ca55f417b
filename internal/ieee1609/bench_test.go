package ieee1609

import (
	"testing"

	"autosec/internal/sim"
)

// benchPKI has the v2x-intersection workload's shape: a root, a
// pseudonym CA under it, and a pseudonym certificate under that. The
// store trusts the root and knows the CA.
func benchPKI(b *testing.B) (*Credential, *Authority, *Store) {
	b.Helper()
	psids := []PSID{PSIDBasicSafety}
	root, err := NewRootAuthority("root", psids, 0, sim.Hour)
	if err != nil {
		b.Fatal(err)
	}
	pca, err := root.IssueCA("pseudonym-ca", psids, 0, sim.Hour)
	if err != nil {
		b.Fatal(err)
	}
	cred, err := pca.Issue("", psids, 0, sim.Hour, true)
	if err != nil {
		b.Fatal(err)
	}
	store := NewStore(root.Cert)
	store.AddCert(pca.Cert)
	return cred, root, store
}

func BenchmarkSignBSM(b *testing.B) {
	cred, _, _ := benchPKI(b)
	payload := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cred.Sign(PSIDBasicSafety, payload, sim.Time(i), false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyBSM(b *testing.B) {
	cred, _, store := benchPKI(b)
	msg, err := cred.Sign(PSIDBasicSafety, make([]byte, 32), 0, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Verify(msg, sim.Millisecond, VerifyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyChain times a repeat signer's chain (hit: served by the
// store's cache) and a first-seen one (cold: a fresh store per op, so the
// full ECDSA walk stays measured).
func BenchmarkVerifyChain(b *testing.B) {
	cred, root, store := benchPKI(b)
	pca := store.known[cred.Cert.IssuerID]
	b.Run("hit", func(b *testing.B) {
		if err := store.VerifyChain(cred.Cert, sim.Millisecond); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := store.VerifyChain(cred.Cert, sim.Millisecond); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewStore(root.Cert)
			s.AddCert(pca)
			if err := s.VerifyChain(cred.Cert, sim.Millisecond); err != nil {
				b.Fatal(err)
			}
		}
	})
}
