package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// ParseLevel maps a -log-level flag value to a slog.Level. Empty means
// info. Unknown values error so a typo fails fast instead of silently
// logging everything (or nothing).
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
}

// NewTextLogger builds the standard process logger: slog text handler on w
// at the given level. cdlab serve/worker point this at stderr.
func NewTextLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// NopLogger returns a logger that discards everything. Packages that take
// an optional *slog.Logger default to this so call sites never nil-check.
func NopLogger() *slog.Logger {
	return slog.New(nopHandler{})
}

// nopHandler is a zero-cost discard handler. go.mod targets go1.21, which
// predates slog.DiscardHandler (go1.24) — hence a local one.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }
