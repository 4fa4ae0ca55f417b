package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"autosec/internal/ieee1609"
	"autosec/internal/sim"
	"autosec/internal/v2x"
)

// v2x-intersection: vehicles beaconing BSMs through an intersection
// while several road-side receivers, each with its own ieee1609.Store,
// verify every message with real ECDSA-P256. Good senders rotate through
// pseudonym pools, so new certificates keep arriving; a mid-run CRL
// revokes some senders; others sign with certificates that expire
// mid-run or that claim a PSID their issuing CA lacks. A round runs one
// independent intersection per worker, each on its own kernel, and
// issues every certificate afresh.
var v2xIntersection = benchWorkload{
	name:      "v2x-intersection",
	unit:      "accepted_sig",
	singleUse: true,
	setup:     setupV2X,
}

const (
	v2xGoodSenders = 24
	v2xBadEach     = 2 // revoked, expiring and escalated senders, each
	v2xReceivers   = 4
	v2xPoolSize    = 4
	v2xRotate      = 500 * sim.Millisecond
	v2xBeacon      = 100 * sim.Millisecond
	v2xHorizon     = 2 * sim.Second
	v2xCRLAt       = v2xHorizon / 2
	v2xExpireAt    = v2xHorizon / 3
	v2xCertLife    = sim.Hour
)

type senderClass int

const (
	classGood senderClass = iota
	classRevoked
	classExpired
	classEscalated
)

type v2xInst struct {
	xs []*intersection
}

// intersection is one field with its own PKI and kernel.
type intersection struct {
	k         *sim.Kernel
	field     *v2x.Field
	receivers []*v2x.Entity
	stores    []*ieee1609.Store
	// class maps the single certificate of each bad sender to its class;
	// good senders' rotating pseudonyms are absent (classGood).
	class      map[*ieee1609.Certificate]senderClass
	violations int64
	// Kept for the replay probes.
	rootCert, pcaCert *ieee1609.Certificate
	crl               *ieee1609.CRL
	signer            *ieee1609.Credential
}

func setupV2X(seed uint64, workers int, tr *tracer) (instance, error) {
	in := &v2xInst{}
	for i := 0; i < workers; i++ {
		x, err := newIntersection(seed^uint64(i)*0x9E3779B97F4A7C15, tr)
		if err != nil {
			return nil, err
		}
		in.xs = append(in.xs, x)
	}
	return in, nil
}

func newIntersection(seed uint64, tr *tracer) (*intersection, error) {
	root := tr.begin("bench.v2x.setup", noSpan)
	defer tr.end(root)
	rng := sim.NewStream(seed, "perfbench.v2x")
	k := sim.NewKernel(seed)
	sp := tr.begin("ieee1609.NewRootAuthority", root)
	ca, err := ieee1609.NewRootAuthority("root",
		[]ieee1609.PSID{ieee1609.PSIDBasicSafety, ieee1609.PSIDInfrastructry, ieee1609.PSIDCRL, ieee1609.PSIDMisbehavior},
		0, v2xCertLife)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("ieee1609.Authority.IssueCA", root)
	pca, err := ca.IssueCA("pseudonym-ca", []ieee1609.PSID{ieee1609.PSIDBasicSafety}, 0, v2xCertLife)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("v2x.NewField", root)
	in := &intersection{k: k, field: v2x.NewField(k, v2x.DefaultRadio(), v2x.DefaultVerifyModel()),
		class: map[*ieee1609.Certificate]senderClass{}, rootCert: ca.Cert, pcaCert: pca.Cert}
	tr.end(sp)

	// Receivers: one road-side unit at each corner of the intersection.
	for i := 0; i < v2xReceivers; i++ {
		sp = tr.begin("ieee1609.Authority.Issue", root)
		cred, err := ca.Issue(fmt.Sprintf("rsu-%d", i), []ieee1609.PSID{ieee1609.PSIDInfrastructry}, 0, v2xCertLife, false)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		store := ieee1609.NewStore(ca.Cert)
		store.AddCert(pca.Cert)
		pos := v2x.Position{X: 15 * float64(1-2*(i&1)), Y: 15 * float64(1-(i&2))}
		sp = tr.begin("v2x.Field.AddRSU", root)
		rx := in.field.AddRSU(fmt.Sprintf("rsu-%d", i), pos, cred, store)
		tr.end(sp)
		rx.OnBSM(in.onBSM)
		in.receivers = append(in.receivers, rx)
		in.stores = append(in.stores, store)
	}

	// Senders on the two crossing roads, heading through the centre.
	var revoked []ieee1609.HashedID8
	classes := []senderClass{classRevoked, classExpired, classEscalated}
	n := v2xGoodSenders + v2xBadEach*len(classes)
	for i := 0; i < n; i++ {
		cls, size, notAfter := classGood, v2xPoolSize, v2xCertLife
		psids := []ieee1609.PSID{ieee1609.PSIDBasicSafety}
		if j := i - v2xGoodSenders; j >= 0 {
			cls, size = classes[j/v2xBadEach], 1
			switch cls {
			case classExpired:
				notAfter = v2xExpireAt
			case classEscalated:
				psids = append(psids, ieee1609.PSIDInfrastructry)
			}
		}
		sp = tr.begin("ieee1609.NewPseudonymPool", root)
		pool, err := ieee1609.NewPseudonymPool(pca, size, psids, 0, notAfter, v2xRotate)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			in.signer = pool.Active(0)
		}
		if cls != classGood {
			// A one-certificate pool always signs with the same credential,
			// so the oracle can recognise it; Active(0) does not rotate.
			cert := pool.Active(0).Cert
			in.class[cert] = cls
			if cls == classRevoked {
				revoked = append(revoked, cert.ID())
			}
		}
		along := -150 + 300*rng.Float64()
		speed := 8 + 8*rng.Float64()
		pos, vx, vy := v2x.Position{X: along}, speed, 0.0
		if i%2 == 1 {
			pos, vx, vy = v2x.Position{Y: along}, 0, speed
		}
		if along > 0 {
			vx, vy = -vx, -vy
		}
		sp = tr.begin("v2x.Field.AddVehicle", root)
		e := in.field.AddVehicle(fmt.Sprintf("veh-%d", i), pos, pool, nil)
		e.SetVelocity(vx, vy)
		e.StartBeacon(v2xBeacon)
		tr.end(sp)
	}

	sp = tr.begin("ieee1609.Authority.SignCRL", root)
	crl, err := ca.SignCRL(1, revoked)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in.crl = crl
	k.At(v2xCRLAt, func() {
		for _, s := range in.stores {
			if err := s.SetCRL(crl, k.Now()); err != nil {
				in.violations++
			}
		}
	})
	return in, nil
}

// onBSM is the receivers' delivery hook: the oracle. No revoked signer
// may be delivered once the CRL has landed, no expiring signer after its
// certificate's end of validity, and no escalated signer ever.
func (in *intersection) onBSM(at sim.Time, from *ieee1609.Certificate, _ v2x.BSM) {
	switch in.class[from] {
	case classRevoked:
		if at >= v2xCRLAt {
			in.violations++
		}
	case classExpired:
		if at > v2xExpireAt {
			in.violations++
		}
	case classEscalated:
		in.violations++
	}
}

func (in *v2xInst) run(tr *tracer) (*result, error) {
	root := tr.begin("bench.v2x.round", noSpan)
	defer tr.end(root)
	rs := make([]*result, len(in.xs))
	errs := make([]error, len(in.xs))
	var wg sync.WaitGroup
	for i, x := range in.xs {
		wg.Add(1)
		go func(i int, x *intersection) {
			defer wg.Done()
			rs[i], errs[i] = x.run(tr, root)
		}(i, x)
	}
	wg.Wait()
	r := &result{counts: map[string]int64{}}
	h := fnv.New64a()
	for i, x := range rs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		r.units += x.units
		r.ops += x.ops
		r.failed += x.failed
		for k, v := range x.counts {
			r.counts[k] += v
		}
		fmt.Fprintf(h, "%d;", x.counts["digest"])
	}
	r.counts["v2x.useful_ratio"] = ratio(r.counts["v2x.verified"], r.counts["v2x.offered"])
	r.counts["digest"] = int64(h.Sum64() >> 1)
	return r, nil
}

func (in *intersection) run(tr *tracer, parent int32) (*result, error) {
	sp := tr.begin("sim.Kernel.RunUntil", parent)
	err := in.k.RunUntil(v2xHorizon)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r := &result{counts: map[string]int64{}}
	c := r.counts
	h := fnv.New64a()
	for _, rx := range in.receivers {
		c["v2x.offered"] += rx.Received.Value
		c["v2x.verified"] += rx.VerifiedOK.Value
		c["v2x.dropped"] += rx.DroppedQueue.Value
		c["ieee1609.rejects"] += rx.VerifyFailed.Value
		fmt.Fprintf(h, "%d/%d/%d/%d/%.6f;", rx.Received.Value, rx.VerifiedOK.Value, rx.VerifyFailed.Value,
			rx.DroppedQueue.Value, math.Round(rx.VerifyLatency.Mean()*1e6)/1e6)
	}
	c["ieee1609.verifies"] = c["v2x.verified"] + c["ieee1609.rejects"]
	c["v2x.broadcasts"] = in.field.Broadcasts.Value
	c["sim.events"] = int64(in.k.Steps())
	c["digest"] = int64(h.Sum64() >> 1)
	r.units = c["v2x.verified"]
	r.ops = c["ieee1609.verifies"]
	r.failed = in.violations
	// The scenario must exercise both sides of every check: signatures
	// accepted, and signatures rejected.
	if c["v2x.verified"] == 0 || c["ieee1609.rejects"] == 0 {
		r.failed = max(r.failed, 1)
	}
	return r, nil
}
