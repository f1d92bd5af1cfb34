package engine

import (
	"container/list"
	"sync"

	"github.com/bullfrogdb/bullfrog/internal/sql"
)

// planCacheCap bounds the number of cached plans, and templateCacheCap the
// number of statement templates. Entries are evicted LRU; TPC-C plus a
// handful of migration transforms fits in a few dozen entries, so the caps
// only matter for workloads with unbounded distinct statement shapes.
const (
	planCacheCap     = 512
	templateCacheCap = 512
)

// planKey identifies a cached plan: the statement it was compiled from (by
// identity: a statement template's, or a long-lived caller's, such as a
// migration transform), the catalog version it was compiled against, and the
// bound alias of a migration transform. Version identity — not sequence — is
// the key component: in-place DDL republishes the head at the same sequence
// but with a fresh identity.
type planKey struct {
	stmt  sql.Statement
	ver   uint64
	alias string
}

// planFailed is the cache entry of a template that does not plan against a
// catalog version: its executions take the plain parse path, whose planner
// reports the error.
type planFailed struct{}

// planCache is an LRU of compiled plans: *Plan for SELECTs, *writePlan for
// INSERT/UPDATE/DELETE templates, or planFailed. Cached plans are safe for
// concurrent execution: every executor node keeps per-execution state in
// locals, and bound rows and literal values travel in the execCtx or in a
// per-execution bound copy, never in the plan itself.
//
// Invalidation is coarse: any DDL (and any migration start or catalog
// mutation done by internal/core outside the SQL path) clears the whole
// cache. Plans embed catalog.Table pointers and index choices resolved at
// build time, so anything that changes the catalog must drop them all.
type planCache struct {
	mu sync.Mutex
	ll *list.List // front = most recently used
	m  map[planKey]*list.Element
}

type planCacheEntry struct {
	key  planKey
	plan any
}

func newPlanCache() *planCache {
	return &planCache{ll: list.New(), m: make(map[planKey]*list.Element)}
}

func (c *planCache) get(key planKey) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*planCacheEntry).plan
}

func (c *planCache) put(key planKey, p any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*planCacheEntry).plan = p
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&planCacheEntry{key: key, plan: p})
	if c.ll.Len() > planCacheCap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*planCacheEntry).key)
	}
}

func (c *planCache) invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.m = make(map[planKey]*list.Element)
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// InvalidatePlans drops every cached plan. The engine calls it after DDL;
// internal/core calls it when a migration starts, completes (input tables may
// be dropped), or is reset, since those paths mutate the catalog without
// going through SQL. Statement templates are pure parses and stay.
func (db *DB) InvalidatePlans() { db.plans.invalidate() }

// PlanCacheLen reports the number of cached plans (tests and diagnostics).
func (db *DB) PlanCacheLen() int { return db.plans.len() }

// templateCache is an LRU from a statement shape (sql.Shape) to its
// template. A template is the shape's parse, or nil when the shape has no
// template (DDL, EXPLAIN, several statements, a parse error), so such text
// goes straight to the plain parse path.
type templateCache struct {
	mu sync.Mutex
	ll *list.List // front = most recently used
	m  map[string]*list.Element
}

type templateEntry struct {
	shape string
	stmt  sql.Statement
}

func newTemplateCache() *templateCache {
	return &templateCache{ll: list.New(), m: make(map[string]*list.Element)}
}

// get looks a shape up; the key is a byte slice so a hit does not allocate.
func (c *templateCache) get(shape []byte) (sql.Statement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[string(shape)]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*templateEntry).stmt, true
}

func (c *templateCache) put(shape string, stmt sql.Statement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[shape]; ok {
		el.Value.(*templateEntry).stmt = stmt
		c.ll.MoveToFront(el)
		return
	}
	c.m[shape] = c.ll.PushFront(&templateEntry{shape: shape, stmt: stmt})
	if c.ll.Len() > templateCacheCap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*templateEntry).shape)
	}
}
