package storage

import (
	"fmt"
	"net/url"
	"strings"
)

// ParseDSN parses a storage DSN of the form
//
//	file:<path>[?sync=group|always|none]
//
// into engine Options. It is the shared grammar of `mccached -backend
// file:...` and `mcsim run -storage file:...`: one spelling, two layers.
// Errors wrap ErrBadOptions.
func ParseDSN(dsn string) (Options, error) {
	scheme, rest, ok := strings.Cut(dsn, ":")
	if !ok || scheme != "file" {
		return Options{}, fmt.Errorf("%w: storage DSN %q (want file:<path>[?sync=group|always|none])",
			ErrBadOptions, dsn)
	}
	path, query, _ := strings.Cut(rest, "?")
	if path == "" {
		return Options{}, fmt.Errorf("%w: storage DSN %q has no path", ErrBadOptions, dsn)
	}
	opts := Options{Path: path}
	if query != "" {
		vals, err := url.ParseQuery(query)
		if err != nil {
			return Options{}, fmt.Errorf("%w: storage DSN query %q: %v", ErrBadOptions, query, err)
		}
		for k := range vals {
			if k != "sync" {
				return Options{}, fmt.Errorf("%w: unknown storage DSN parameter %q (only sync=)", ErrBadOptions, k)
			}
		}
		mode, err := ParseSyncMode(vals.Get("sync"))
		if err != nil {
			return Options{}, err
		}
		opts.Sync = mode
	}
	return opts, nil
}
