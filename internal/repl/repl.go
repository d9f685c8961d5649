// Package repl implements the interactive shell of cmd/orchestra's node
// mode: a peer's local edit / publish / reconcile / resolve loop, the
// textual counterpart of the paper's Java GUI demonstration.
package repl

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"orchestra/internal/core"
	"orchestra/internal/datalog"
	"orchestra/internal/parser"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
)

// REPL drives one peer from a command stream.
type REPL struct {
	peer *core.Peer
	out  io.Writer
	// txn is the open multi-update transaction, if any.
	txn *core.Txn
}

// New creates a REPL for the peer writing results to out.
func New(peer *core.Peer, out io.Writer) *REPL {
	return &REPL{peer: peer, out: out}
}

// Run processes commands until EOF or "quit". Errors in individual
// commands are reported to the output and do not stop the loop.
func (r *REPL) Run(in io.Reader) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			return nil
		}
		if err := r.Exec(line); err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
		}
	}
	return sc.Err()
}

// Exec runs a single command.
func (r *REPL) Exec(line string) error {
	fields := strings.Fields(line)
	cmd := fields[0]
	args := fields[1:]
	switch cmd {
	case "help":
		r.help()
		return nil
	case "begin":
		if r.txn != nil {
			return fmt.Errorf("transaction already open")
		}
		r.txn = r.peer.NewTransaction()
		fmt.Fprintln(r.out, "transaction started")
		return nil
	case "commit":
		if r.txn == nil {
			return fmt.Errorf("no open transaction")
		}
		txn, err := r.txn.Commit()
		r.txn = nil
		if err != nil {
			return err
		}
		fmt.Fprintf(r.out, "committed %s\n", txn.ID)
		return nil
	case "abort":
		if r.txn == nil {
			return fmt.Errorf("no open transaction")
		}
		r.txn.Abort()
		r.txn = nil
		fmt.Fprintln(r.out, "aborted")
		return nil
	case "insert", "delete":
		return r.write(cmd, args)
	case "modify":
		return r.modify(args)
	case "publish":
		epoch, err := r.peer.Publish(context.Background())
		if err != nil {
			return err
		}
		fmt.Fprintf(r.out, "published; store epoch %d\n", epoch)
		return nil
	case "reconcile":
		rep, err := r.peer.Reconcile(context.Background())
		if err != nil {
			return err
		}
		fmt.Fprintf(r.out, "epoch %d: fetched %d, accepted %v, rejected %v, deferred %v, pending %v\n",
			rep.Epoch, rep.Fetched, rep.Accepted, rep.Rejected, rep.Deferred, rep.Pending)
		return nil
	case "resolve":
		if len(args) != 1 {
			return usageErr("usage: resolve PEER:SEQ")
		}
		id, err := updates.ParseTxnID(args[0])
		if err != nil {
			return err
		}
		rep, err := r.peer.Resolve(context.Background(), id)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.out, "resolved: accepted %v, rejected %v\n", rep.Accepted, rep.Rejected)
		return nil
	case "status":
		if len(args) != 1 {
			return usageErr("usage: status PEER:SEQ")
		}
		id, err := updates.ParseTxnID(args[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(r.out, "%s: %s\n", id, r.peer.Status(id))
		return nil
	case "query":
		return r.query(strings.TrimSpace(strings.TrimPrefix(line, "query")))
	case "explain":
		return r.explain(args)
	case "dump":
		return r.dump(args)
	case "epoch":
		fmt.Fprintf(r.out, "%d\n", r.peer.Epoch())
		return nil
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

func (r *REPL) help() {
	fmt.Fprint(r.out, `commands:
  begin | commit | abort           group updates into one transaction
  insert REL v1 v2 ...             insert a tuple (auto-commits if no begin)
  delete REL v1 v2 ...             delete a tuple
  modify REL v1 ... -> w1 ...      replace a tuple
  publish                          archive committed transactions
  reconcile                        fetch, translate, and apply updates
  resolve PEER:SEQ                 settle a deferred conflict
  status PEER:SEQ                  show a transaction's local status
  query q(x,...) :- Body. [rules]  run a goal-directed query; extra rules
                                   define (possibly recursive) views
  explain REL v1 v2 ...            show a tuple's provenance
  dump [REL]                       print the local instance
  epoch                            show the last reconciled epoch
  quit
`)
}

// relation resolves a local relation name. The error wraps the
// core.ErrUnknownRelation sentinel so errors.Is dispatch works for embedders
// driving the REPL programmatically (the public facade maps the core
// sentinel onto its own).
func (r *REPL) relation(name string) (*schema.Relation, error) {
	rel := r.peer.Instance().Schema().Relation(name)
	if rel == nil {
		return nil, fmt.Errorf("%w: no relation %q at this peer", core.ErrUnknownRelation, name)
	}
	return rel, nil
}

// usageErr reports a malformed command line, wrapped with the
// core.ErrInvalidQuery sentinel for errors.Is dispatch.
func usageErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", core.ErrInvalidQuery, fmt.Sprintf(format, args...))
}

// parseTuple converts command arguments to a tuple per the relation types.
// Arity and value-parse errors wrap core.ErrInvalidQuery.
func parseTuple(rel *schema.Relation, args []string) (schema.Tuple, error) {
	if len(args) != rel.Arity() {
		return nil, usageErr("%s takes %d values, got %d", rel.Name, rel.Arity(), len(args))
	}
	tu := make(schema.Tuple, len(args))
	for i, a := range args {
		switch rel.Attrs[i].Type {
		case schema.KindString:
			tu[i] = schema.String(a)
		case schema.KindInt:
			n, err := strconv.ParseInt(a, 10, 64)
			if err != nil {
				return nil, usageErr("column %s: bad int %q", rel.Attrs[i].Name, a)
			}
			tu[i] = schema.Int(n)
		case schema.KindFloat:
			f, err := strconv.ParseFloat(a, 64)
			if err != nil {
				return nil, usageErr("column %s: bad float %q", rel.Attrs[i].Name, a)
			}
			tu[i] = schema.Float(f)
		case schema.KindBool:
			b, err := strconv.ParseBool(a)
			if err != nil {
				return nil, usageErr("column %s: bad bool %q", rel.Attrs[i].Name, a)
			}
			tu[i] = schema.Bool(b)
		}
	}
	return tu, nil
}

// write handles insert and delete.
func (r *REPL) write(cmd string, args []string) error {
	if len(args) < 1 {
		return usageErr("usage: %s REL v1 v2 ...", cmd)
	}
	rel, err := r.relation(args[0])
	if err != nil {
		return err
	}
	tu, err := parseTuple(rel, args[1:])
	if err != nil {
		return err
	}
	tx := r.txn
	auto := tx == nil
	if auto {
		tx = r.peer.NewTransaction()
	}
	if cmd == "insert" {
		tx.Insert(rel.Name, tu)
	} else {
		tx.Delete(rel.Name, tu)
	}
	if auto {
		txn, err := tx.Commit()
		if err != nil {
			return err
		}
		fmt.Fprintf(r.out, "committed %s\n", txn.ID)
	} else {
		fmt.Fprintln(r.out, "queued")
	}
	return nil
}

// modify handles: modify REL old... -> new...
func (r *REPL) modify(args []string) error {
	if len(args) < 1 {
		return usageErr("usage: modify REL v1 ... -> w1 ...")
	}
	rel, err := r.relation(args[0])
	if err != nil {
		return err
	}
	sep := -1
	for i, a := range args {
		if a == "->" {
			sep = i
		}
	}
	if sep < 0 {
		return usageErr("usage: modify REL v1 ... -> w1 ...")
	}
	old, err := parseTuple(rel, args[1:sep])
	if err != nil {
		return err
	}
	new_, err := parseTuple(rel, args[sep+1:])
	if err != nil {
		return err
	}
	tx := r.txn
	auto := tx == nil
	if auto {
		tx = r.peer.NewTransaction()
	}
	tx.Modify(rel.Name, old, new_)
	if auto {
		txn, err := tx.Commit()
		if err != nil {
			return err
		}
		fmt.Fprintf(r.out, "committed %s\n", txn.ID)
	} else {
		fmt.Fprintln(r.out, "queued")
	}
	return nil
}

// query parses and runs a query through the goal-directed engine. The
// first rule is the goal: its head lists the output terms (variables, or
// constants for bound/boolean goals) and its body the conditions. Any
// further rules on the same line define views the goal may reference —
// including recursively:
//
//	query reach(y) :- linked(1, y). linked(a,b) :- S(a,b,s). linked(a,c) :- linked(a,b), S(b,c,s).
func (r *REPL) query(text string) error {
	if !strings.HasSuffix(strings.TrimSpace(text), ".") {
		text += "."
	}
	rules, err := parser.ParseRules(text)
	if err != nil {
		return fmt.Errorf("%w: %v", core.ErrInvalidQuery, err)
	}
	if len(rules) == 0 {
		return usageErr("usage: query q(x, ...) :- Body. [view rules...]")
	}
	goalTerms := make([]datalog.Term, len(rules[0].Head.Terms))
	for i, ht := range rules[0].Head.Terms {
		if ht.Skolem != nil {
			return usageErr("query head cannot use skolem terms")
		}
		goalTerms[i] = ht.Term
	}
	ans, err := r.peer.QueryGoal(context.Background(), core.GoalQuery{
		Goal:  datalog.NewAtom(rules[0].Head.Pred, goalTerms...),
		Rules: rules,
	})
	if err != nil {
		return err
	}
	for _, a := range ans {
		fmt.Fprintln(r.out, a.Tuple.String())
	}
	fmt.Fprintf(r.out, "%d answer(s)\n", len(ans))
	return nil
}

// explain prints a tuple's provenance breakdown.
func (r *REPL) explain(args []string) error {
	if len(args) < 1 {
		return usageErr("usage: explain REL v1 v2 ...")
	}
	rel, err := r.relation(args[0])
	if err != nil {
		return err
	}
	tu, err := parseTuple(rel, args[1:])
	if err != nil {
		return err
	}
	prov, supports, ok := r.peer.Explain(rel.Name, tu)
	if !ok {
		return fmt.Errorf("%s%s not in local instance", rel.Name, tu)
	}
	fmt.Fprintf(r.out, "provenance: %s\n", prov)
	for i, s := range supports {
		fmt.Fprintf(r.out, "  derivation %d: txns=%v mappings=%v\n", i+1, s.Txns, s.Mappings)
	}
	return nil
}

// dump prints the local instance (optionally one relation).
func (r *REPL) dump(args []string) error {
	rels := r.peer.Instance().Schema().Relations()
	if len(args) == 1 {
		rel, err := r.relation(args[0])
		if err != nil {
			return err
		}
		rels = []*schema.Relation{rel}
	}
	for _, rel := range rels {
		rows, _ := r.peer.Instance().Rows(rel.Name)
		fmt.Fprintf(r.out, "%s (%d tuples)\n", rel, len(rows))
		for _, row := range rows {
			fmt.Fprintf(r.out, "  %s\n", row.Tuple)
		}
	}
	return nil
}
