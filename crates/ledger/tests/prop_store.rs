//! The object store against a naive model (ISSUE 19).
//!
//! Random transactions built from every `TxContext` operation run against
//! a [`Ledger`]; after each one the owner/type index must agree with a
//! filter of the whole store, the coin supply must balance, a failed
//! transaction must have changed nothing, and a committed one must have
//! left exactly what a step-by-step replay on a plain map predicts
//! (versions, owners, payloads — the store moves payloads instead of
//! copying them, and stages metadata only for `touch`/`transfer`).

use hummingbird_ledger::{Address, ExecError, Ledger, ObjectEntry, ObjectId, Owner, TxContext};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const TAGS: [&str; 3] = ["prop::A", "prop::Bee", "prop::a-much-longer-type-tag::C"];

/// One step of a transaction; indices pick from the live pool.
#[derive(Clone, Debug)]
enum Step {
    Create {
        owner: u8,
        tag: u8,
        len: u8,
    },
    Read {
        obj: usize,
    },
    Write {
        obj: usize,
        len: u8,
    },
    Touch {
        obj: usize,
    },
    Transfer {
        obj: usize,
        owner: u8,
    },
    /// Transfer to the owner it already has.
    TransferBack {
        obj: usize,
    },
    Delete {
        obj: usize,
    },
    CreateThenDelete {
        tag: u8,
    },
    Pay {
        to: u8,
        amount: u16,
    },
    PayFrom {
        from: u8,
        to: u8,
        amount: u16,
    },
    /// The closure gives up here.
    Abort,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..8, 0u8..3, 0u8..200).prop_map(|(owner, tag, len)| Step::Create { owner, tag, len }),
        (0u8..8, 0u8..3, 0u8..200).prop_map(|(owner, tag, len)| Step::Create { owner, tag, len }),
        any::<usize>().prop_map(|obj| Step::Read { obj }),
        (any::<usize>(), 0u8..200).prop_map(|(obj, len)| Step::Write { obj, len }),
        any::<usize>().prop_map(|obj| Step::Touch { obj }),
        (any::<usize>(), 0u8..8).prop_map(|(obj, owner)| Step::Transfer { obj, owner }),
        any::<usize>().prop_map(|obj| Step::TransferBack { obj }),
        any::<usize>().prop_map(|obj| Step::Delete { obj }),
        (0u8..3).prop_map(|tag| Step::CreateThenDelete { tag }),
        (0u8..4, 0u16..5000).prop_map(|(to, amount)| Step::Pay { to, amount }),
        (0u8..4, 0u8..4, 0u16..5000).prop_map(|(from, to, amount)| Step::PayFrom {
            from,
            to,
            amount
        }),
        (0u8..12).prop_map(|roll| if roll == 0 { Step::Abort } else { Step::Touch { obj: 0 } }),
    ]
}

/// A transaction: who sends it, its steps, and whether a failing step
/// aborts it (`strict`) or is shrugged off by the closure.
fn arb_tx() -> impl Strategy<Value = (u8, bool, Vec<Step>)> {
    (0u8..4, any::<bool>(), prop::collection::vec(arb_step(), 1..7))
}

fn account(i: u8) -> Address {
    Address::from_label(&format!("prop-store-{}", i % 4))
}

/// Owners of all four kinds; object owners point into the live pool.
fn owner(pick: u8, pool: &[ObjectId]) -> Owner {
    match pick {
        0..=3 => Owner::Address(account(pick)),
        4 => Owner::Shared,
        5 => Owner::Immutable,
        _ if pool.is_empty() => Owner::Shared,
        _ => Owner::Object(pool[pick as usize % pool.len()]),
    }
}

/// What the model knows of one object.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Obj {
    version: u64,
    owner: Owner,
    tag: &'static str,
    data: Vec<u8>,
}

type Model = BTreeMap<ObjectId, Obj>;

/// Runs `steps` inside one transaction, mirroring every step that
/// succeeds on `model`.
fn run(
    ctx: &mut TxContext,
    steps: &[Step],
    strict: bool,
    pool: &[ObjectId],
    model: &mut Model,
) -> Result<(), ExecError> {
    let pick = |obj: usize| pool.get(obj % pool.len().max(1)).copied();
    for (n, step) in steps.iter().enumerate() {
        let fill = n as u8;
        let outcome = match *step {
            Step::Create { owner: o, tag, len } => {
                let (owner, tag) = (owner(o, pool), TAGS[tag as usize]);
                let data = vec![fill; len as usize];
                let id = ctx.create(owner, tag, data.clone());
                model.insert(id, Obj { version: 1, owner, tag, data });
                Ok(())
            }
            Step::CreateThenDelete { tag } => {
                let id = ctx.create(Owner::Address(ctx.sender()), TAGS[tag as usize], vec![9; 40]);
                assert!(ctx.exists(id));
                ctx.delete(id).map(|()| assert!(!ctx.exists(id)))
            }
            Step::Pay { to, amount } => {
                ctx.pay(account(to), u64::from(amount));
                Ok(())
            }
            Step::PayFrom { from, to, amount } => {
                ctx.pay_from(account(from), account(to), u64::from(amount));
                Ok(())
            }
            Step::Abort => return Err(ExecError::Contract("gave up".into())),
            Step::Read { obj }
            | Step::Write { obj, .. }
            | Step::Touch { obj }
            | Step::Transfer { obj, .. }
            | Step::TransferBack { obj }
            | Step::Delete { obj } => {
                let Some(id) = pick(obj) else { continue };
                // The model may not know the object any more (deleted
                // earlier in this transaction): the store must refuse too.
                let Some(known) = model.get(&id).cloned() else {
                    assert_eq!(ctx.touch(id, TAGS[0]), Err(ExecError::ObjectNotFound(id)));
                    continue;
                };
                assert_eq!(
                    ctx.object_meta(id).map(|m| (m.version, m.owner)),
                    Ok((known.version, known.owner))
                );
                match *step {
                    Step::Read { .. } => {
                        ctx.read(id, known.tag).map(|data| assert_eq!(data, known.data))
                    }
                    Step::Write { len, .. } => {
                        let data = vec![fill; len as usize];
                        ctx.write(id, known.tag, data.clone()).map(|()| {
                            let o = model.get_mut(&id).expect("known");
                            (o.version, o.data) = (o.version + 1, data);
                        })
                    }
                    Step::Touch { .. } => ctx
                        .touch(id, known.tag)
                        .map(|()| model.get_mut(&id).expect("known").version += 1),
                    Step::Transfer { .. } | Step::TransferBack { .. } => {
                        let to = match *step {
                            Step::Transfer { owner: o, .. } => owner(o, pool),
                            _ => known.owner,
                        };
                        ctx.transfer(id, to).map(|()| {
                            let o = model.get_mut(&id).expect("known");
                            (o.version, o.owner) = (o.version + 1, to);
                        })
                    }
                    _ => ctx.delete(id).map(|()| drop(model.remove(&id))),
                }
            }
        };
        if strict {
            outcome?;
        }
    }
    Ok(())
}

/// Everything observable about the store, for before/after comparison.
#[derive(Debug, PartialEq)]
struct Snapshot {
    tx_count: u64,
    balances: Vec<u64>,
    objects: Vec<(ObjectId, Obj, u64)>,
}

fn snapshot(ledger: &Ledger) -> Snapshot {
    let mut objects: Vec<_> = ledger
        .objects()
        .map(|e| {
            let obj = Obj {
                version: e.meta.version,
                owner: e.meta.owner,
                tag: e.meta.type_tag,
                data: e.data.clone(),
            };
            (e.meta.id, obj, e.storage_paid)
        })
        .collect();
    objects.sort_by_key(|o| o.0);
    let balances = (0..4).map(|i| ledger.balance(account(i))).collect();
    Snapshot { tx_count: ledger.tx_count(), balances, objects }
}

/// The index agrees with a filter of the whole store for every key seen.
fn check_index(
    ledger: &Ledger,
    seen: &BTreeSet<(u8, [u8; 32], &'static str)>,
) -> Result<(), String> {
    for &(kind, bytes, tag) in seen {
        let owner = match kind {
            0 => Owner::Address(Address(bytes)),
            1 => Owner::Shared,
            2 => Owner::Immutable,
            _ => Owner::Object(ObjectId(bytes)),
        };
        let mut want: Vec<ObjectId> = ledger
            .objects()
            .filter(|e| e.meta.owner == owner && e.meta.type_tag == tag)
            .map(|e| e.meta.id)
            .collect();
        want.sort();
        let got: Vec<ObjectId> =
            ledger.objects_owned_by(owner, tag).map(|e: &ObjectEntry| e.meta.id).collect();
        prop_assert_eq!(&got, &want, "objects_owned_by({:?}, {})", owner, tag);
        prop_assert_eq!(ledger.count_owned_by(owner, tag), want.len());
    }
    Ok(())
}

fn key_of(owner: Owner, tag: &'static str) -> (u8, [u8; 32], &'static str) {
    match owner {
        Owner::Address(a) => (0, a.0, tag),
        Owner::Shared => (1, [0; 32], tag),
        Owner::Immutable => (2, [0; 32], tag),
        Owner::Object(p) => (3, p.0, tag),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn store_matches_naive_model(txs in prop::collection::vec(arb_tx(), 1..40)) {
        let mut ledger = Ledger::new();
        for i in 0..3 {
            ledger.mint(account(i), 1 << 40);
        }
        ledger.mint(account(3), 1_000); // cannot pay for gas
        let mut model = Model::new();
        let mut seen = BTreeSet::new();
        for (sender, strict, steps) in &txs {
            let pool: Vec<ObjectId> = model.keys().copied().collect();
            let before = snapshot(&ledger);
            let mut after = model.clone();
            let result =
                ledger.execute(account(*sender), |ctx| run(ctx, steps, *strict, &pool, &mut after));
            match result {
                Ok(_) => {
                    prop_assert_eq!(ledger.tx_count(), before.tx_count + 1);
                    model = after;
                }
                Err(_) => prop_assert_eq!(&snapshot(&ledger), &before, "a failed transaction left a trace"),
            }
            // The store holds exactly the model.
            prop_assert_eq!(ledger.object_count(), model.len());
            for (id, want) in &model {
                let e = ledger.object(*id).ok_or(format!("{id:?} missing"))?;
                let got = Obj { version: e.meta.version, owner: e.meta.owner, tag: e.meta.type_tag, data: e.data.clone() };
                prop_assert_eq!(&got, want);
                prop_assert_eq!(e.storage_paid, ledger.gas.storage_fee(e.data.len() as u64));
                seen.insert(key_of(want.owner, want.tag));
            }
            check_index(&ledger, &seen)?;
            prop_assert_eq!(ledger.total_minted() as i128, ledger.total_supply() as i128 + ledger.gas_burned());
        }
    }
}

/// One owner's set grows to hundreds of members and shrinks back to none,
/// staying in ID order throughout (the index's table doubles and halves).
#[test]
fn one_owner_grows_and_shrinks_in_order() {
    let mut ledger = Ledger::new();
    let alice = account(0);
    ledger.mint(alice, 1 << 50);
    let owner = Owner::Address(alice);
    let mut live: Vec<ObjectId> = Vec::new();
    let sorted = |ledger: &Ledger| -> Vec<ObjectId> {
        ledger.objects_owned_by(owner, TAGS[0]).map(|e| e.meta.id).collect()
    };
    for round in 0..12u8 {
        let made = ledger
            .execute(alice, |ctx| {
                Ok((0..50).map(|_| ctx.create(owner, TAGS[0], vec![round])).collect::<Vec<_>>())
            })
            .expect("create")
            .value;
        live.extend(made);
        live.sort();
        assert_eq!(sorted(&ledger), live);
    }
    // Delete in creation-independent order: every third, then the rest.
    while !live.is_empty() {
        let gone: Vec<ObjectId> = live.iter().copied().step_by(3).collect();
        ledger
            .execute(alice, |ctx| gone.iter().try_for_each(|id| ctx.delete(*id)))
            .expect("delete");
        live.retain(|id| !gone.contains(id));
        assert_eq!(sorted(&ledger), live);
        assert_eq!(ledger.count_owned_by(owner, TAGS[0]), live.len());
    }
    assert_eq!(ledger.object_count(), 0);
}

/// The scripted path (moved here from the crate's unit tests): create,
/// transfer, plain write and delete each leave the index where a filter
/// of the store would.
#[test]
fn owner_tag_index_tracks_create_transfer_delete() {
    let (alice, bob) = (account(0), account(1));
    let mut l = Ledger::new();
    l.mint(alice, 1 << 40);
    let owned = |who: Address| Owner::Address(who);
    let mut ids = Vec::new();
    for i in 0..3u8 {
        let id = l
            .execute(alice, |ctx| Ok(ctx.create(Owner::Address(ctx.sender()), "test::T", vec![i])))
            .unwrap()
            .value;
        ids.push(id);
    }
    // Query returns exactly Alice's objects, in ObjectId order.
    let got: Vec<_> = l.objects_owned_by(owned(alice), "test::T").map(|e| e.meta.id).collect();
    let mut want = ids.clone();
    want.sort();
    assert_eq!(got, want);
    assert_eq!(l.count_owned_by(owned(alice), "test::T"), 3);
    assert_eq!(l.count_owned_by(owned(bob), "test::T"), 0);
    assert_eq!(l.count_owned_by(owned(alice), "test::Other"), 0);

    // Transfer re-keys the entry; plain writes leave it in place.
    l.execute(alice, |ctx| ctx.transfer(ids[0], Owner::Address(bob))).unwrap();
    l.execute(alice, |ctx| ctx.write(ids[1], "test::T", vec![9])).unwrap();
    assert_eq!(l.count_owned_by(owned(alice), "test::T"), 2);
    assert_eq!(l.count_owned_by(owned(bob), "test::T"), 1);

    // Deletion removes the entry from the index.
    l.execute(alice, |ctx| ctx.delete(ids[1])).unwrap();
    assert_eq!(l.count_owned_by(owned(alice), "test::T"), 1);
    let got: Vec<_> = l.objects_owned_by(owned(alice), "test::T").map(|e| e.meta.id).collect();
    assert_eq!(got, vec![ids[2]]);
}
