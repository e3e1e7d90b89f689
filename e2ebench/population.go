package main

import (
	"encoding/json"
	"math/rand"
	"time"

	"repro/internal/collectserver"
	"repro/internal/storage"
	"repro/internal/study"
	"repro/internal/vectors"
)

// chunkRecords is fpagent's submission chunk size.
const chunkRecords = 128

// participant is one pre-rendered study visit: the consent request and
// the submission chunks, encoded before any timed window opens. A chunk
// body is completed with the session token at send time.
type participant struct {
	user, ua string
	session  []byte
	chunks   [][]byte // JSON array of collectserver.FPRecord
	counts   []int    // records per chunk
	recs     []storage.Record
}

// renderPopulation renders a study population and lays each user's records out
// the way fpagent submits them: iteration-major over the seven vectors,
// with the non-audio surfaces riding on the first record.
func renderPopulation(cfg study.Config) ([]*participant, error) {
	ds, err := study.Run(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]*participant, len(ds.Users))
	for ui, user := range ds.Users {
		p := &participant{user: user, ua: ds.UA[ui]}
		// Marshalling a struct of strings and a bool cannot fail.
		p.session, _ = json.Marshal(collectserver.NewSessionRequest{UserID: user, UserAgent: p.ua, Consent: true})
		var fps []collectserver.FPRecord
		for it := 0; it < ds.Iterations; it++ {
			for _, v := range vectors.All {
				fr := collectserver.FPRecord{Vector: v.String(), Iteration: it, Hash: ds.Obs[v][ui][it]}
				if len(fps) == 0 {
					fr.Surfaces = map[string]string{
						study.SurfaceCanvas:   ds.Canvas[ui],
						study.SurfaceFonts:    ds.Fonts[ui],
						study.SurfaceMathJS:   ds.MathJS[ui],
						study.SurfacePlatform: ds.Platforms[ui],
					}
				}
				fps = append(fps, fr)
				p.recs = append(p.recs, storage.Record{UserID: user, Vector: fr.Vector,
					Iteration: it, Hash: fr.Hash, UserAgent: p.ua, Surfaces: fr.Surfaces})
			}
		}
		for len(fps) > 0 {
			n := min(chunkRecords, len(fps))
			b, err := json.Marshal(fps[:n])
			if err != nil {
				return nil, err
			}
			p.chunks = append(p.chunks, b)
			p.counts = append(p.counts, n)
			fps = fps[n:]
		}
		out[ui] = p
	}
	return out, nil
}

// shuffled returns ps in a seed-determined arrival order.
func shuffled(ps []*participant, seed int64) []*participant {
	out := append([]*participant(nil), ps...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// submitBody completes a pre-encoded chunk with the session token and an
// idempotency key.
func submitBody(token string, chunk []byte, key string) []byte {
	b := make([]byte, 0, len(chunk)+len(token)+len(key)+64)
	b = append(b, `{"token":"`...)
	b = append(b, token...)
	b = append(b, `","idempotency_key":"`...)
	b = append(b, key...)
	b = append(b, `","records":`...)
	b = append(b, chunk...)
	return append(b, '}')
}

// preload writes participants' records into a fresh store the way the
// server would have stored them, one append per participant.
func preload(path string, ps []*participant) error {
	st, err := storage.Open(path, storage.Options{})
	if err != nil {
		return err
	}
	at := time.Unix(1648166400, 0).UTC()
	for i, p := range ps {
		recs := make([]storage.Record, len(p.recs))
		copy(recs, p.recs)
		for j := range recs {
			recs[j].SessionID = "s-preload"
			recs[j].ReceivedAt = at.Add(time.Duration(i) * time.Second)
		}
		if err := st.Append(recs...); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}
