package bandit

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Save serializes the service's state: configuration, non-zero
// weights, the WAL watermark (the journal position the weights cover),
// and the open rank events still awaiting rewards. Trained telemetry
// is not saved — it lives in the journal — but open events must
// travel with the snapshot or rewards that straddle a checkpoint
// boundary would be lost on replay: the suffix holds the reward
// record, the snapshot holds the event it names.
//
// Format history: v1 weights were indexed by the legacy string-cross
// FNV feature hashing; v2 moved to the pre-hashed feature-ID pair
// mixing; v3 (current) adds the wal= header field and "ev" lines for
// open events. Weight-line semantics are unchanged since v2.
func (s *Service) Save(w io.Writer) error {
	// Serialize under the locks into a buffer, then stream lock-free:
	// writing directly to a slow consumer (e.g. an HTTP response) under
	// the lock would let one client stall training and, through the
	// writer-pending RWMutex semantics, all concurrent Rank calls.
	var buf bytes.Buffer
	s.evMu.Lock()
	s.encodeLocked(&buf)
	s.evMu.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}

// CheckpointTo is Save for the recovery path: it first advances the
// WAL watermark to the journal's current end, atomically with the
// state encode (evMu blocks ranks, so no record can slip between the
// watermark read and the snapshot). The caller must have quiesced
// reward ingestion and flushed training first — the serve layer's
// checkpoint barrier — or journaled-but-unapplied rewards below the
// watermark would be skipped on replay.
func (s *Service) CheckpointTo(w io.Writer) error {
	var buf bytes.Buffer
	s.evMu.Lock()
	if s.journal != nil {
		s.walLSN = s.journal.LastLSN()
	}
	s.encodeLocked(&buf)
	s.evMu.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}

// encodeLocked writes the v3 snapshot form; callers hold evMu (mu is
// read-locked inside — evMu→mu nests in that order everywhere).
func (s *Service) encodeLocked(buf *bytes.Buffer) {
	s.mu.RLock()
	fmt.Fprintf(buf, "qoadvisor-bandit v3 dim=%d epsilon=%g lr=%g clip=%g wal=%d\n",
		s.cfg.Dim, s.cfg.Epsilon, s.cfg.LearningRate, s.cfg.MaxIPSWeight, s.walLSN)
	for i, wgt := range s.w {
		if wgt == 0 {
			continue
		}
		fmt.Fprintf(buf, "%d %v\n", i, wgt)
	}
	s.mu.RUnlock()
	for _, ev := range s.log {
		if _, open := s.events[ev.EventID]; !open || ev.Trained {
			continue
		}
		rewarded := 0
		if ev.Rewarded {
			rewarded = 1
		}
		fmt.Fprintf(buf, "ev %s %v %d %v %s %s\n",
			ev.EventID, ev.Prob, rewarded, ev.Reward,
			formatIDs(ev.Context.featureIDs()), formatIDs(ev.Actions[ev.Chosen].featureIDs()))
	}
}

// formatIDs renders a feature-ID list as comma-joined hex ("-" when
// empty, so the line always has a fixed field count).
func formatIDs(ids []uint64) string {
	if len(ids) == 0 {
		return "-"
	}
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(id, 16))
	}
	return b.String()
}

func parseIDs(s string) ([]uint64, error) {
	if s == "-" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	ids := make([]uint64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("bad feature ID %q", p)
		}
		ids[i] = v
	}
	return ids, nil
}

// maxDim caps the weight dimension a snapshot header may declare. Load
// allocates the dense weight vector up front, so an unchecked header dim
// from a corrupt file or a bootstrap stream could demand terabytes — an
// out-of-memory fatal error no recover catches. 1<<26 float64 weights is
// 512 MiB, 256× the default dim.
const maxDim = 1 << 26

// Load restores a service saved with Save. The seed drives the
// restored service's exploration randomness (exploration state is not
// part of the model).
//
// v1 snapshots are migrated on load: the hyperparameters carry over,
// but the weights do not — v1 indexes were derived from the legacy
// string-cross hashing, so under the v2+ pair mixing each would land
// on an unrelated feature pair and the model would exploit pure noise
// with full (1-epsilon) confidence. Dropping them restores the neutral
// untrained policy instead, which trains back to usefulness as rewards
// arrive; a resave writes the v3 header. The body is still fully
// parsed so a corrupt v1 file fails loudly rather than "migrating".
// v2 snapshots load weight-for-weight with watermark 0 and no open
// events.
func Load(r io.Reader, seed int64) (*Service, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22) // event lines can be long
	if !sc.Scan() {
		return nil, fmt.Errorf("bandit: empty model file")
	}
	header := sc.Text()
	var version, dim int
	var eps, lr, clip float64
	var walLSN uint64
	n, _ := fmt.Sscanf(header, "qoadvisor-bandit v%d dim=%d epsilon=%g lr=%g clip=%g wal=%d",
		&version, &dim, &eps, &lr, &clip, &walLSN)
	if n < 5 {
		return nil, fmt.Errorf("bandit: bad model header %q", header)
	}
	if dim <= 0 || dim > maxDim {
		return nil, fmt.Errorf("bandit: bad dim %d in model header (want 1..%d)", dim, maxDim)
	}
	switch version {
	case 1, 2:
		// pre-WAL formats: no wal= field, no event lines
	case 3:
		if n != 6 {
			return nil, fmt.Errorf("bandit: v3 model header missing wal field: %q", header)
		}
	default:
		return nil, fmt.Errorf("bandit: unsupported model version v%d", version)
	}
	svc := New(Config{Dim: dim, Epsilon: eps, LearningRate: lr, MaxIPSWeight: clip, Seed: seed})
	svc.walLSN = walLSN
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Fields(text)
		if parts[0] == "ev" {
			if version < 3 {
				return nil, fmt.Errorf("bandit: line %d: event line in v%d model", line, version)
			}
			ev, err := parseEventLine(parts)
			if err != nil {
				return nil, fmt.Errorf("bandit: line %d: %w", line, err)
			}
			svc.restoreEvent(ev)
			continue
		}
		if len(parts) != 2 {
			return nil, fmt.Errorf("bandit: line %d: want 'index weight'", line)
		}
		idx, err := strconv.Atoi(parts[0])
		if err != nil || idx < 0 || idx >= dim {
			return nil, fmt.Errorf("bandit: line %d: bad index %q", line, parts[0])
		}
		wgt, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bandit: line %d: bad weight %q", line, parts[1])
		}
		if version >= 2 {
			svc.w[idx] = wgt
		}
	}
	return svc, sc.Err()
}

// parseEventLine decodes one open-event snapshot line:
// "ev <id> <prob> <rewarded> <reward> <ctxIDs> <actIDs>".
func parseEventLine(parts []string) (*Event, error) {
	if len(parts) != 7 {
		return nil, fmt.Errorf("event line has %d fields, want 7", len(parts))
	}
	prob, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return nil, fmt.Errorf("bad prob %q", parts[2])
	}
	rewarded := false
	switch parts[3] {
	case "0":
	case "1":
		rewarded = true
	default:
		return nil, fmt.Errorf("bad rewarded flag %q", parts[3])
	}
	reward, err := strconv.ParseFloat(parts[4], 64)
	if err != nil {
		return nil, fmt.Errorf("bad reward %q", parts[4])
	}
	ctxIDs, err := parseIDs(parts[5])
	if err != nil {
		return nil, err
	}
	actIDs, err := parseIDs(parts[6])
	if err != nil {
		return nil, err
	}
	return &Event{
		EventID:  parts[1],
		Context:  Context{IDs: ctxIDs},
		Actions:  []Action{{IDs: actIDs}},
		Chosen:   0,
		Prob:     prob,
		Reward:   reward,
		Rewarded: rewarded,
	}, nil
}
