// A leaf-linked tree kernel whose query file, testdata/determinism/swap.q,
// asks its pairs in both orders: the same proof goals reach the engine in
// both orientations, and proving them takes DFA work, so `make determinism`
// sees a memo or DFA cache that kept the first caller's orientation.  The
// nested walks leave post-loop checks, L*.R.R* ⊆ R.R* and R*.L.R* ⊆ L.R*,
// that only the DFA cache decides; the analysis's shared-cache test and
// the server's warm-widening test rely on them.
struct LLBinaryTree {
	struct LLBinaryTree *L;
	struct LLBinaryTree *R;
	struct LLBinaryTree *N;
	int d;
	axioms {
		A1: forall p, p.L <> p.R;
		A2: forall p <> q, p.(L|R) <> q.(L|R);
		A3: forall p <> q, p.N <> q.N;
		A4: forall p, p.(L|R|N)+ <> p.eps;
	}
};

int swap(struct LLBinaryTree *root) {
	struct LLBinaryTree *p;
	struct LLBinaryTree *q;
	struct LLBinaryTree *r;
	p = root->L;
	p = p->R;
A:	p->d = 1;
	q = root->R;
	q = q->L;
B:	q->d = 2;
	r = p->N;
C:	r->d = 3;
	q = root->R;
	while (q != NULL) {
X:		q->d = 4;
		q = q->R;
	}
	r = root;
	while (r != NULL) {
		q = r->R;
		while (q != NULL) {
D:			q->d = q->d + 1;
			q = q->R;
		}
		r = r->L;
	}
	p = root->L;
	while (p != NULL) {
Y:		p->d = 5;
		p = p->R;
	}
	r = root;
	while (r != NULL) {
		p = r->L;
		while (p != NULL) {
			p->d = p->d + 2;
			p = p->R;
		}
		r = r->R;
	}
	return r->d;
}
