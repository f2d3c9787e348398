package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/wire"
)

// serveClient talks to a live aptserved endpoint's POST /v1/batch in the
// wire vocabulary, exactly like an external client.
type serveClient struct {
	base   string
	client *http.Client
}

func newServeClient(base string) *serveClient {
	return &serveClient{
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Timeout: 30 * time.Second},
	}
}

// batchVerdicts submits the program and query lines, returning one folded
// verdict per line ("no" only when every expanded query answered no).
func (c *serveClient) batchVerdicts(ctx context.Context, program, fn string, lines []string) ([]string, error) {
	body, err := json.Marshal(wire.BatchRequest{Program: program, Fn: fn, Queries: lines})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: %s: %s", resp.Status, strings.TrimSpace(string(payload)))
	}
	var br wire.BatchResponse
	if err := wire.DecodeResponse(payload, &br); err != nil {
		return nil, fmt.Errorf("serve: bad response: %w", err)
	}
	verdicts := make([]string, len(lines))
	seen := make([]bool, len(lines))
	for i := range verdicts {
		verdicts[i] = "no"
	}
	for _, r := range br.Results {
		if r.Line < 0 || r.Line >= len(lines) {
			return nil, fmt.Errorf("serve: result line %d out of range", r.Line)
		}
		seen[r.Line] = true
		v, err := wire.ParseVerdict(r.Result)
		if err != nil {
			return nil, fmt.Errorf("serve: result for line %d: %w", r.Line, err)
		}
		switch v {
		case wire.VerdictYes:
			verdicts[r.Line] = "yes"
		case wire.VerdictMaybe:
			if verdicts[r.Line] != "yes" {
				verdicts[r.Line] = "maybe"
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			// The server expanded no queries for this line; no claim made.
			verdicts[i] = "maybe"
		}
	}
	return verdicts, nil
}
